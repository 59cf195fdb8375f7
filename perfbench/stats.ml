(* Order statistics and the result line. *)

module Json = Vqc_obs.Json

let sorted values =
  let copy = Array.copy values in
  Array.sort Float.compare copy;
  copy

(* Nearest-rank percentile of an already sorted array, [p] in [0, 1]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float n)) - 1)))

let median values = percentile (sorted values) 0.5

let ratio part whole = if whole = 0 then 0.0 else float part /. float whole

let mean_over total count = if count = 0 then 0.0 else total /. float count

(* A reported metric.  [samples] is how many observations the value
   summarises; [base] names the denominator of a ratio. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;
  base : string;
}

let metric ?(base = "") ~samples name unit_ value =
  { name; value; unit_; samples; base }

(* Peak resident set of a process, from the VmHWM line of
   /proc/<pid>/status, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* One human-readable line per metric, then the result object as the
   last line of stdout. *)
let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-28s %14.6g %-8s n=%d%s\n" m.name m.value m.unit_
        m.samples
        (if m.base = "" then "" else " of " ^ m.base))
    metrics;
  let value m =
    ( m.name,
      Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]
    )
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", Json.Obj (List.map value metrics));
          ]))

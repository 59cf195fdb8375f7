(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent span, request id).  Spans are
   appended to growable arrays while the replay runs and written out
   once it ends.  With recording off, [span] is a plain call, so the
   same replay code gives the untraced baseline for the tracing
   overhead. *)

let recording = ref false
let names = ref [||]
let starts = ref [||]
let stops = ref [||]
let parents = ref [||]
let requests = ref [||]
let count = ref 0
let current = ref (-1)

let grow () =
  let size = max 1024 (2 * Array.length !starts) in
  let extend a fill =
    let b = Array.make size fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  names := extend !names "";
  starts := extend !starts 0.0;
  stops := extend !stops 0.0;
  parents := extend !parents (-1);
  requests := extend !requests (-1)

let push name ~request ~start =
  if !count = Array.length !starts then grow ();
  let id = !count in
  incr count;
  let parent = !current in
  !names.(id) <- name;
  !parents.(id) <- parent;
  !requests.(id) <- (if request >= 0 || parent < 0 then request else !requests.(parent));
  !starts.(id) <- start;
  id

(* Record a span of [f] named [name], nested under the innermost open
   span. *)
let span ?(request = -1) name f =
  if not !recording then f ()
  else begin
    let parent = !current in
    let id = push name ~request ~start:(Unix.gettimeofday ()) in
    current := id;
    Fun.protect
      ~finally:(fun () ->
        !stops.(id) <- Unix.gettimeofday ();
        current := parent)
      f
  end

(* A child interval the program timed itself (a span.* histogram
   delta), attached to the innermost open span from its start. *)
let inner name seconds =
  if !recording && !current >= 0 && seconds > 0.0 then begin
    let start = !starts.(!current) in
    let id = push name ~request:(-1) ~start in
    !stops.(id) <- start +. seconds
  end

(* Self time of each named span: its duration minus the part of it its
   children cover (children run one after another, so their durations
   add up without overlap).  Returns name -> (calls, total self seconds). *)
let self_times () =
  let covered = Array.make !count 0.0 in
  for id = 0 to !count - 1 do
    let parent = !parents.(id) in
    if parent >= 0 then
      covered.(parent) <- covered.(parent) +. (!stops.(id) -. !starts.(id))
  done;
  let table = Hashtbl.create 16 in
  for id = 0 to !count - 1 do
    let duration = !stops.(id) -. !starts.(id) in
    let self = Float.max 0.0 (duration -. covered.(id)) in
    let calls, total =
      Option.value (Hashtbl.find_opt table !names.(id)) ~default:(0, 0.0)
    in
    Hashtbl.replace table !names.(id) (calls + 1, total +. self)
  done;
  table

(* Mean self time of [name] in seconds, with its call count. *)
let mean_self table name =
  match Hashtbl.find_opt table name with
  | Some (calls, total) -> (total /. float calls, calls)
  | None -> (0.0, 0)

(* One tab-separated line per span: id, parent, request, name, start
   and end in microseconds since the first span. *)
let write path =
  let origin = if !count > 0 then !starts.(0) else 0.0 in
  let us t = int_of_float ((t -. origin) *. 1e6) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\trequest\tname\tstart_us\tend_us\n";
      for id = 0 to !count - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" id !parents.(id)
          !requests.(id) !names.(id) (us !starts.(id)) (us !stops.(id))
      done)

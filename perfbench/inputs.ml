(* Seeded input generators.  Everything a workload feeds the program —
   calibration days, catalog names, policy labels, NDJSON lines — is
   drawn here from the workload seed, so one seed always yields one
   input sequence.  The program sees only those names and lines. *)

module Catalog = Vqc_workloads.Catalog
module Policies = Vqc_service.Policies

let days = 52
let policies = List.map (fun (e : Policies.entry) -> e.Policies.label) Policies.all

(* rnd-SD and rnd-LD route for seconds on some calibration days (a
   per-day compile-time spread of 1x to 20x), so a run of a few
   seconds could not report a steady rate over them. *)
let heavy = [ "rnd-SD"; "rnd-LD" ]
let light names = List.filter (fun name -> not (List.mem name heavy)) names

let cold_circuits =
  light (List.map (fun (e : Catalog.entry) -> e.Catalog.name) Catalog.table1)

let cheap_circuits = light (Catalog.names ())

let medium_circuits =
  [ "bv-16"; "bv-20"; "qft-10"; "qft-12"; "qft-14"; "alu"; "alu-10"; "qaoa-12" ]

let keys circuits =
  Array.of_list
    (List.concat_map (fun c -> List.map (fun p -> (c, p)) policies) circuits)

let state seed stream = Random.State.make [| 0x9e3779b9; seed; stream |]

let shuffle st array =
  for i = Array.length array - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = array.(i) in
    array.(i) <- array.(j);
    array.(j) <- t
  done;
  array

(* compile-cold: day-passes.  Days come in seeded permutations of the
   whole history (so every run of the same length sees nearly the same
   days); each pass visits every (circuit, policy) pair once, in a
   fresh order. *)
let cold_plans seed =
  let st = state seed 0 in
  let pairs = keys cold_circuits in
  let days_left = ref [] and pending = ref [] in
  let rec next () =
    match (!pending, !days_left) with
    | item :: rest, _ ->
      pending := rest;
      item
    | [], day :: rest ->
      days_left := rest;
      pending :=
        Array.to_list
          (Array.map (fun (c, p) -> (day, c, p)) (shuffle st (Array.copy pairs)));
      next ()
    | [], [] ->
      days_left := Array.to_list (shuffle st (Array.init days Fun.id));
      next ()
  in
  next

(* Zipf-like popularity (weight 1/rank) over a fixed key ranking: the
   seed varies the draw sequence, not which keys are hot, so every
   seed loads the same mix. *)
let zipf keys =
  let n = Array.length keys in
  let cumulative = Array.make n 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun rank _ ->
      total := !total +. (1.0 /. float (rank + 1));
      cumulative.(rank) <- !total)
    keys;
  fun st ->
    let u = Random.State.float st !total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cumulative.(mid) > u then search lo mid else search (mid + 1) hi
    in
    keys.(min (n - 1) (search 0 (n - 1)))

type serve_kind =
  | Hot
  | Drift
  | Estimate

let precision = 5e-3
let advance_every = 100

let request ~id ?mc_seed (circuit, policy) =
  let rider =
    match mc_seed with
    | None -> ""
    | Some seed -> Printf.sprintf ",\"precision\":%g,\"mc_seed\":%d" precision seed
  in
  Printf.sprintf "{\"id\":%d,\"workload\":\"%s\",\"policy\":\"%s\"%s}" id
    circuit policy rider

let advance_line = "{\"op\":\"advance_epoch\"}"

let serve_keys = function
  | Hot | Estimate -> keys cheap_circuits
  | Drift -> keys medium_circuits

(* The warm-up pass: every key once, in catalog order, without
   estimate riders.  The order is fixed because it decides which
   compiles find their layer searches in the router memo, and so the
   compile times the warm-up reports. *)
let warmup kind =
  Array.to_list (Array.mapi (fun i key -> request ~id:(-1 - i) key) (serve_keys kind))

(* The measured stream of one client, as an endless generator of NDJSON
   lines.  serve-drift inserts an epoch advance after every
   [advance_every] requests. *)
let stream kind ~seed ~client =
  let st = state seed (200 + client) in
  let keys = serve_keys kind in
  let draw =
    match kind with
    | Hot | Estimate -> zipf keys
    | Drift -> fun st -> keys.(Random.State.int st (Array.length keys))
  in
  let sent = ref 0 in
  fun () ->
    if kind = Drift && !sent mod (advance_every + 1) = advance_every
    then begin
      incr sent;
      advance_line
    end
    else begin
      incr sent;
      let mc_seed =
        if kind = Estimate then Some (Random.State.bits st) else None
      in
      request ~id:!sent ?mc_seed (draw st)
    end

(* compile-cold: in-process Compiler.compile over seeded day-passes of
   the Table-1 circuits x every service policy, each plan checked by
   the independent replay validator Verify.compiled.  Only the compile
   call is timed. *)

module Compiler = Vqc_mapper.Compiler
module Verify = Vqc_check.Verify
module Diagnostic = Vqc_diag.Diagnostic
module Catalog = Vqc_workloads.Catalog
module Policies = Vqc_service.Policies
module Epoch = Vqc_service.Epoch

let setups = 5

(* Fresh day devices (so no cost table survives from an earlier pass)
   and an empty router memo. *)
let setup () =
  let started = Unix.gettimeofday () in
  let epochs = Replay.epochs () in
  let devices = Array.init Inputs.days (Epoch.device epochs) in
  Vqc_mapper.Router.memo_clear ();
  (Unix.gettimeofday () -. started, devices)

let circuit name = (Catalog.find name).Catalog.circuit
let policy label = (Option.get (Policies.find label)).Policies.policy

(* Compile one plan and verify it: (compile seconds, plan is valid). *)
let plan ~request devices (day, name, label) =
  Spans.span ~request "request" @@ fun () ->
  let device = devices.(day) and source = circuit name in
  let started = Unix.gettimeofday () in
  match Spans.span "mapper.compile" (fun () -> Compiler.compile device (policy label) source) with
  | compiled ->
    let seconds = Unix.gettimeofday () -. started in
    let diagnostics = Spans.span "check.verify" (fun () -> Verify.compiled device source compiled) in
    (seconds, not (Diagnostic.has_errors diagnostics))
  | exception (Invalid_argument _ | Failure _ | Verify.Invalid_plan _) ->
    (Unix.gettimeofday () -. started, false)

type outcome = {
  metrics : Stats.metric list;
  attempted : int;
  failed : int;
  items : (int * string * string) list;  (** the plans compiled, in draw order *)
}

(* Two compile workers (vqc-serve --jobs 2 compiles on two domains too)
   take plans in draw order from one seeded sequence until each has
   spent [seconds] compiling. *)
let workers = 2

let run ~seed ~seconds =
  let timed = List.init setups (fun _ -> setup ()) in
  let devices = snd (List.nth timed (setups - 1)) in
  let next = Inputs.cold_plans seed in
  let lock = Mutex.create () and drawn = ref 0 in
  let take () =
    Mutex.protect lock (fun () ->
        incr drawn;
        (!drawn, next ()))
  in
  let worker () =
    let busy = ref 0.0 and compiled = ref [] in
    while !busy < seconds do
      let index, item = take () in
      let t, ok = plan ~request:index devices item in
      busy := !busy +. t;
      compiled := (index, item, t, ok) :: !compiled
    done;
    !compiled
  in
  let compiled =
    List.concat_map Domain.join (List.init workers (fun _ -> Domain.spawn worker))
    |> List.sort compare
  in
  let n = List.length compiled in
  let failed = List.length (List.filter (fun (_, _, _, ok) -> not ok) compiled) in
  let sorted = Stats.sorted (Array.of_list (List.map (fun (_, _, t, _) -> t) compiled)) in
  let ms p = 1e3 *. Stats.percentile sorted p in
  let rate = float n /. seconds in
  let m = Stats.metric ~samples:n in
  {
    metrics =
      [
        Stats.metric "setup_s" "s" (Stats.median (Array.of_list (List.map fst timed))) ~samples:setups;
        m "plans_per_s" "plans/s" rate;
        (* one request is one in-process compile call *)
        m "req_per_s" "1/s" rate;
        m "latency_p50_ms" "ms" (ms 0.5);
        m "latency_p99_ms" "ms" (ms 0.99);
        Stats.metric "peak_rss_mb" "MB" (Stats.peak_rss_mb "self") ~samples:1;
      ];
    attempted = n;
    failed;
    items = List.map (fun (_, item, _, _) -> item) compiled;
  }

(* The traced run: the end-to-end run, then its plans replayed in draw
   order on one domain and fresh devices, with spans on and then off
   (both replays follow a full run, so neither starts from a colder
   process). *)
let traced ~seed ~seconds =
  let o = run ~seed ~seconds in
  let failed = ref 0 in
  let replay recording =
    let _, devices = setup () in
    Spans.recording := recording;
    let started = Unix.gettimeofday () in
    List.iteri (fun request item -> if not (snd (plan ~request devices item)) then incr failed) o.items;
    Spans.recording := false;
    Unix.gettimeofday () -. started
  in
  let before = Layers.take () in
  let wall = replay true in
  let after = Layers.take () in
  let untraced_wall = replay false in
  let observed =
    {
      Layers.before;
      after;
      spans = Spans.self_times ();
      wall;
      untraced_wall;
      jobs = 1;
      rejected = 0;
      verify_failures = o.failed + !failed;
      net_overhead = [||];
      migrations = [];
    }
  in
  ({ o with failed = o.failed + !failed }, observed)

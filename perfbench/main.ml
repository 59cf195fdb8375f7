(* The repository benchmark: one seeded command per workload.

     sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Workloads (BENCHMARK.json records why each was chosen):
   - compile-cold  in-process Compiler.compile over seeded day-passes
                   of Table 1 (less rnd-SD/rnd-LD) x every policy;
   - serve-hot     vqc-serve, Zipf stream over warm cheap-catalog keys;
   - serve-drift   vqc-serve --verify --drift-threshold 0.05, medium
                   circuits, an epoch advance every 100 requests;
   - estimate      as serve-hot, every request with a 5e-3 PST
                   estimate rider.
   Serve workloads run a closed loop of 2 client connections, 8
   requests in flight each, against vqc-serve --tcp 0 --jobs 2
   --batch 1 --days 52.

   --trace 0 reports the end-to-end metrics, the same on every
   workload:
   - setup_s         median of several set-ups (compile-cold: build the
                     52 day devices; serve: start the server and warm
                     both sessions with every key of the workload);
   - plans_per_s     plans delivered per measured second;
   - req_per_s       responses per measured second (compile-cold: one
                     request is one compile call);
   - latency_p50_ms, latency_p99_ms
                     send -> response per request (compile-cold: the
                     compile call);
   - peak_rss_mb     VmHWM of the server (compile-cold: of this process).
   It also prints error_frac (failed / attempted) and, on estimate,
   trials_per_s, which are not in the result.

   --trace 1 reports the per-layer metrics (Layers): after the same
   run, it replays the same inputs in-process through the layer entry
   points, with spans on and then off, and reads the program's Vqc_obs
   counters and span.* histograms as before/after deltas.

   Every output is checked (see Cold and Serve); a failed check makes
   the command exit 1 after printing the result.  Each metric is
   printed on its own line with its unit and sample count; the last
   stdout line is the result object. *)

let end_to_end =
  [
    "setup_s"; "plans_per_s"; "req_per_s"; "latency_p50_ms"; "latency_p99_ms";
    "peak_rss_mb";
  ]

let workloads =
  [
    ("compile-cold", None);
    ("serve-hot", Some Inputs.Hot);
    ("serve-drift", Some Inputs.Drift);
    ("estimate", Some Inputs.Estimate);
  ]

let out_dir = ".perfbench"

let usage () =
  prerr_endline
    "usage: main.exe --server <vqc-serve> --workload <compile-cold|serve-hot|\
     serve-drift|estimate> --seed <n> --seconds <s> --trace <0|1>";
  exit 2

(* Per-layer metrics of a serve workload: the TCP run, then the same
   client streams replayed in-process three times — a warm-up, then
   traced, then untraced for the tracing overhead. *)
let serve_traced ~exe kind ~seed ~seconds =
  let o = Serve.run ~exe ~dir:out_dir kind ~seed ~seconds in
  ignore (Replay.run kind o.Serve.streams);
  Spans.recording := true;
  let before = Layers.take () in
  let traced = Replay.run kind o.Serve.streams in
  let after = Layers.take () in
  Spans.recording := false;
  let untraced = Replay.run kind o.Serve.streams in
  (* the in-process sessions must answer what the server answered *)
  let differ = ref 0 in
  Array.iteri
    (fun c lines ->
      let served = o.Serve.responses.(c) in
      if Array.length lines <> Array.length served then incr differ
      else
        Array.iteri
          (fun i line -> if Serve.strip_nd line <> Serve.strip_nd served.(i) then incr differ)
          lines)
    traced.Replay.lines;
  let observed =
    {
      Layers.before;
      after;
      spans = Spans.self_times ();
      wall = traced.Replay.wall;
      untraced_wall = untraced.Replay.wall;
      jobs = Replay.jobs;
      rejected = traced.Replay.rejected;
      verify_failures = 0;
      net_overhead = o.Serve.net_overhead;
      migrations = traced.Replay.migrations;
    }
  in
  (o.Serve.metrics, o.Serve.attempted, o.Serve.failed + !differ, observed)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* leave through exit, so at_exit reaps the child processes *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  let server = ref "" and workload = ref "" and seed = ref (-1) in
  let seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [
      ("--server", Arg.Set_string server, "vqc-serve executable");
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun _ -> usage ())
    "perfbench";
  let kind =
    match List.assoc_opt !workload workloads with
    | Some kind -> kind
    | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  if not (Sys.file_exists !server) then usage ();
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let traced = !trace = 1 in
  let seed = !seed and seconds = !seconds in
  let metrics, attempted, failed, observed =
    match kind with
    | None when traced ->
      let o, observed = Cold.traced ~seed ~seconds in
      (o.Cold.metrics, o.Cold.attempted, o.Cold.failed, Some observed)
    | None ->
      let o = Cold.run ~seed ~seconds in
      (o.Cold.metrics, o.Cold.attempted, o.Cold.failed, None)
    | Some kind when traced ->
      let metrics, attempted, failed, observed = serve_traced ~exe:!server kind ~seed ~seconds in
      (metrics, attempted, failed, Some observed)
    | Some kind ->
      let o = Serve.run ~exe:!server ~dir:out_dir kind ~seed ~seconds in
      (o.Serve.metrics, o.Serve.attempted, o.Serve.failed, None)
  in
  let error_frac =
    Stats.metric "error_frac" "ratio" (Stats.ratio failed attempted) ~samples:attempted
      ~base:"attempts"
  in
  let reported, extra =
    match observed with
    | None ->
      List.partition (fun m -> List.mem m.Stats.name end_to_end) (metrics @ [ error_frac ])
    | Some observed ->
      Spans.write (Filename.concat out_dir (Printf.sprintf "spans-%s.tsv" !workload));
      (Layers.report observed, metrics @ [ error_frac ])
  in
  List.iter
    (fun m -> Printf.printf "%-28s %14.6g %-8s n=%d (not in the result)\n" m.Stats.name m.Stats.value m.Stats.unit_ m.Stats.samples)
    extra;
  let correct = failed = 0 in
  Stats.print_result ~correct ~attempted ~failed reported;
  exit (if correct then 0 else 1)

(* Per-layer metrics of the traced run.  Counts and program-side timings
   are before/after deltas of the program's own Vqc_obs.Metrics counters
   and span.* histograms; call timings are the self times of the spans
   the benchmark records around each layer entry point. *)

module Metrics = Vqc_obs.Metrics

let counter_names =
  [
    "service.requests"; "service.batches"; "service.cache.hits";
    "service.cache.misses"; "serve.store.hits"; "serve.store.misses";
    "service.verify.checks"; "service.verify.rejected";
    "mapper.astar_expansions"; "mapper.layer_memo_hits";
    "mapper.layer_memo_misses"; "mapper.candidates"; "mapper.swaps_inserted";
    "sim.estimator.trials"; "sim.estimator.rounds";
    "sim.estimator.trials_saved"; "engine.pool.chunks";
  ]

let histogram_names =
  [
    "span.mapper.compile"; "span.mapper.route"; "span.mapper.sabre";
    "span.sim.estimator.run"; "engine.pool.chunk_seconds";
  ]

type snapshot = {
  counters : (string * int) list;
  histograms : (string * (int * float)) list;
}

let take () =
  {
    counters =
      List.map
        (fun name -> (name, Metrics.counter_value (Metrics.counter name)))
        counter_names;
    histograms =
      List.map
        (fun name ->
          let h = Metrics.histogram name in
          (name, (Metrics.histogram_count h, Metrics.histogram_sum h)))
        histogram_names;
  }

(* Seconds the program's own spans ran, for the child intervals of a
   Service.flush span. *)
let inner_seconds () =
  Metrics.histogram_sum (Metrics.histogram "span.mapper.compile")
  +. Metrics.histogram_sum (Metrics.histogram "span.sim.estimator.run")

let histogram_samples () =
  Metrics.fold_histograms (fun n _ h -> n + Metrics.histogram_count h) 0

(* Everything the traced run learned besides the counters. *)
type observed = {
  before : snapshot;
  after : snapshot;
  spans : (string, int * float) Hashtbl.t;  (** {!Spans.self_times} *)
  wall : float;  (** traced replay, seconds *)
  untraced_wall : float;  (** the same replay with recording off *)
  jobs : int;
  rejected : int;
  verify_failures : int;  (** plans the benchmark's own Verify call refused *)
  net_overhead : float array;  (** client latency minus nd.seconds, s *)
  migrations : Vqc_service.Epoch.migration list;
}

let report o =
  let dc name = List.assoc name o.after.counters - List.assoc name o.before.counters in
  let dh name =
    let c1, s1 = List.assoc name o.after.histograms in
    let c0, s0 = List.assoc name o.before.histograms in
    (c1 - c0, s1 -. s0)
  in
  let m = Stats.metric in
  let call_metric name span scale unit_ =
    let mean, calls = Spans.mean_self o.spans span in
    m name unit_ (mean *. scale) ~samples:calls
  in
  let histogram_mean name span scale =
    let calls, total = dh span in
    m name "ms" (Stats.mean_over total calls *. scale) ~samples:calls
  in
  let count name unit_ v = m name unit_ (float v) ~samples:1 in
  let hit_ratio name hits misses base =
    m name "ratio" (Stats.ratio (dc hits) (dc hits + dc misses)) ~base
      ~samples:(dc hits + dc misses)
  in
  let requests = dc "service.requests" and batches = dc "service.batches" in
  let net = Stats.sorted o.net_overhead in
  let net_n = Array.length net in
  let expansions = dc "mapper.astar_expansions" in
  let route_calls, route_seconds = dh "span.mapper.route" in
  let estimates, estimate_seconds = dh "span.sim.estimator.run" in
  let trials = dc "sim.estimator.trials" and saved = dc "sim.estimator.trials_saved" in
  let _, busy = dh "engine.pool.chunk_seconds" in
  let tally f = List.fold_left (fun acc mig -> acc + f mig) 0 o.migrations in
  let retained = tally (fun g -> g.Vqc_service.Epoch.retained) in
  let invalidated = tally (fun g -> g.Vqc_service.Epoch.invalidated) in
  [
    call_metric "protocol.parse_us" "protocol.parse" 1e6 "us";
    call_metric "protocol.render_us" "protocol.render" 1e6 "us";
    call_metric "admission.submit_us" "admission.submit" 1e6 "us";
    count "admission.rejected" "count" o.rejected;
    call_metric "service.flush_self_ms" "service.flush" 1e3 "ms";
    m "service.batch_requests" "req/batch" (Stats.ratio requests batches)
      ~samples:batches ~base:"service.batches";
    count "plan_cache.lookups" "count" (dc "service.cache.hits" + dc "service.cache.misses");
    hit_ratio "plan_cache.hit_ratio" "service.cache.hits" "service.cache.misses"
      "plan_cache.lookups";
    count "store.lookups" "count" (dc "serve.store.hits" + dc "serve.store.misses");
    hit_ratio "store.hit_ratio" "serve.store.hits" "serve.store.misses" "store.lookups";
    m "serve_net.overhead_p50_ms" "ms" (1e3 *. Stats.percentile net 0.5) ~samples:net_n;
    m "serve_net.overhead_p99_ms" "ms" (1e3 *. Stats.percentile net 0.99) ~samples:net_n;
    histogram_mean "mapper.compile_ms" "span.mapper.compile" 1e3;
    histogram_mean "mapper.route_ms" "span.mapper.route" 1e3;
    histogram_mean "mapper.sabre_ms" "span.mapper.sabre" 1e3;
    count "mapper.astar_expansions" "count" expansions;
    m "mapper.us_per_expansion" "us" (if expansions = 0 then 0.0 else 1e6 *. route_seconds /. float expansions)
      ~samples:route_calls ~base:"mapper.astar_expansions";
    hit_ratio "mapper.memo_hit_ratio" "mapper.layer_memo_hits" "mapper.layer_memo_misses"
      "layer searches";
    count "mapper.candidates" "count" (dc "mapper.candidates");
    count "mapper.swaps_inserted" "count" (dc "mapper.swaps_inserted");
    call_metric "check.verify_ms" "check.verify" 1e3 "ms";
    count "check.plans" "count"
      (dc "service.verify.checks" + snd (Spans.mean_self o.spans "check.verify"));
    count "check.failures" "count" (dc "service.verify.rejected" + o.verify_failures);
    m "sim.estimate_ms" "ms" (1e3 *. Stats.mean_over estimate_seconds estimates) ~samples:estimates;
    count "sim.trials" "count" trials;
    m "sim.trials_per_s" "trials/s" (if estimate_seconds > 0.0 then float trials /. estimate_seconds else 0.0)
      ~samples:estimates;
    count "sim.rounds" "count" (dc "sim.estimator.rounds");
    m "sim.trials_saved_ratio" "ratio" (Stats.ratio saved (trials + saved)) ~samples:estimates
      ~base:"trial budget";
    count "engine.pool.chunks" "count" (dc "engine.pool.chunks");
    m "engine.pool.busy_frac" "ratio" (busy /. (o.wall *. float o.jobs)) ~samples:1
      ~base:"wall x jobs";
    call_metric "drift.advance_ms" "drift.advance" 1e3 "ms";
    count "drift.scored" "count" (retained + invalidated);
    m "drift.retained_ratio" "ratio" (Stats.ratio retained (retained + invalidated))
      ~samples:(retained + invalidated) ~base:"drift.scored";
    count "drift.reverified" "count" (tally (fun g -> g.Vqc_service.Epoch.reverified));
    count "drift.recompiled" "count" (tally (fun g -> g.Vqc_service.Epoch.recompiled));
    count "drift.invalidated" "count" invalidated;
    m "obs.trace_overhead_frac" "ratio" ((o.wall -. o.untraced_wall) /. o.untraced_wall)
      ~samples:1 ~base:"untraced replay";
    count "obs.histogram_samples" "count" (histogram_samples ());
  ]

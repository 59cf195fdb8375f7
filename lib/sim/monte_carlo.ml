open Vqc_circuit
module Rng = Vqc_rng.Rng
module Pool = Vqc_engine.Pool
module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace
module Span = Vqc_obs.Span
module Json = Vqc_obs.Json

(* Telemetry is aggregated per chunk (one counter add each), never per
   trial, so the hot Bernoulli loop stays hot.  Every recorded value is
   a deterministic function of the inputs — only the chunk timings are
   not, and those live in the histogram / under the trace "nd" key. *)
let runs_total = Metrics.counter "sim.mc.runs"
let trials_total = Metrics.counter "sim.mc.trials"
let chunks_total = Metrics.counter "sim.mc.chunks"
let draws_total = Metrics.counter "sim.mc.draws"
let early_exits_total = Metrics.counter "sim.mc.early_exits"
let chunk_seconds = Metrics.histogram "sim.mc.chunk_seconds"

type result = {
  trials : int;
  successes : int;
  pst : float;
  ci95 : float;
}

(* Trials per unit of parallel work.  Fixed (never derived from the
   worker count) so the chunk boundaries — and therefore each chunk's
   split-off RNG stream — are identical whatever [jobs] is.  Shared with
   the adaptive estimator, whose rounds are multiples of it: an adaptive
   run walks the same chunk layout the fixed path would. *)
let chunk_trials = Estimator.chunk_trials

let failure_probabilities ?(coherence = true)
    ?(coherence_scale = Reliability.default_coherence_scale)
    ?(crosstalk_strength = 0.0) device circuit =
  let schedule = lazy (Schedule.build device circuit) in
  (* Per-operation failure probabilities, fixed across trials.  The order
     of the events is irrelevant (a trial fails if ANY event fires), so
     under crosstalk the two-qubit failures come from the schedule-order
     inflation list and the rest from the circuit. *)
  let one_qubit_and_measure_failures =
    Circuit.gates circuit
    |> List.filter_map (fun gate ->
           match gate with
           | Gate.Barrier _ | Gate.Cnot _ | Gate.Swap _ -> None
           | Gate.One_qubit _ | Gate.Measure _ ->
             Some (1.0 -. Reliability.gate_success device gate))
  in
  let two_qubit_failures =
    if crosstalk_strength <= 0.0 then
      Circuit.gates circuit
      |> List.filter_map (fun gate ->
             match gate with
             | Gate.Cnot _ | Gate.Swap _ ->
               Some (1.0 -. Reliability.gate_success device gate)
             | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> None)
    else
      Crosstalk.inflation_factors ~strength:crosstalk_strength device
        (Lazy.force schedule)
      |> List.map (fun (gate, factor) ->
             let e = 1.0 -. Reliability.gate_success device gate in
             Float.min 0.5 (e *. factor))
  in
  let gate_failures = one_qubit_and_measure_failures @ two_qubit_failures in
  let coherence_failures =
    if not coherence then []
    else
      List.map
        (fun q ->
          1.0
          -. Reliability.coherence_survival ~scale:coherence_scale device
               (Lazy.force schedule) q)
        (Circuit.used_qubits circuit)
  in
  Array.of_list (gate_failures @ coherence_failures)

(* One chunk of Bernoulli trials against a fixed failure table — the
   unit of work both the fixed and the adaptive path fan out.  [k] is
   the chunk's global index (trace labelling only). *)
let chunk_kernel failure_probabilities =
  let kernel =
    Mc_kernel.run_chunk (Mc_kernel.of_probabilities failure_probabilities)
  in
  fun k rng count ->
    let chunk_started = Unix.gettimeofday () in
    let successes, draws = kernel rng count in
    let seconds = Unix.gettimeofday () -. chunk_started in
    Metrics.add draws_total draws;
    Metrics.add early_exits_total (count - successes);
    Metrics.observe chunk_seconds seconds;
    if Trace.enabled () then
      Trace.emit ~source:"sim" ~event:"mc_chunk"
        ~nd:[ ("seconds", Json.Float seconds) ]
        [
          ("chunk", Json.Int k);
          ("trials", Json.Int count);
          ("successes", Json.Int successes);
          ("draws", Json.Int draws);
        ];
    successes

let run ?coherence ?coherence_scale ?crosstalk_strength ?(jobs = 1) ~trials rng
    device circuit =
  if trials <= 0 then invalid_arg "Monte_carlo.run: need positive trials";
  if jobs < 1 then invalid_arg "Monte_carlo.run: need at least one job";
  Span.with_span ~source:"sim" "sim.mc.run"
    ~fields:[ ("trials", Json.Int trials) ]
  @@ fun () ->
  let failure_probabilities =
    failure_probabilities ?coherence ?coherence_scale ?crosstalk_strength
      device circuit
  in
  let run_chunk = chunk_kernel failure_probabilities in
  (* Chunked fan-out with per-chunk RNG streams: chunk k draws from the
     k-th [Rng.split] child of the caller's generator, derived here in
     index order on the calling domain.  Results are summed in chunk
     order by [Pool.map_reduce], so [jobs = 1] and [jobs = N] agree
     bit-for-bit. *)
  let nchunks = Estimator.chunks_for trials in
  let chunks =
    let rec build k acc =
      if k >= nchunks then List.rev acc
      else
        let count = min chunk_trials (trials - (k * chunk_trials)) in
        build (k + 1) ((count, Rng.split rng) :: acc)
    in
    build 0 []
  in
  Metrics.incr runs_total;
  Metrics.add trials_total trials;
  Metrics.add chunks_total nchunks;
  (* A worker with no chunk to run would sit idle for the whole fan-out:
     clamp the pool to the chunk count (pure resource economics — the
     chunk layout, RNG streams and result are unchanged).  The clamp
     rule lives in {!Estimator} so both paths share it. *)
  let jobs = Estimator.effective_jobs ~jobs trials in
  let successes =
    if jobs = 1 then
      List.fold_left
        (fun (k, acc) (count, rng) -> (k + 1, acc + run_chunk k rng count))
        (0, 0) chunks
      |> snd
    else
      Pool.with_pool ~jobs (fun pool ->
          Pool.map_reduce pool
            ~f:(fun k (count, rng) -> run_chunk k rng count)
            ~combine:( + ) ~init:0 chunks)
  in
  let pst = float_of_int successes /. float_of_int trials in
  let ci95 =
    1.96 *. sqrt (Float.max 0.0 (pst *. (1.0 -. pst)) /. float_of_int trials)
  in
  { trials; successes; pst; ci95 }

let run_adaptive ?coherence ?coherence_scale ?crosstalk_strength ?jobs ?pool
    ?config rng device circuit =
  let failure_probabilities =
    failure_probabilities ?coherence ?coherence_scale ?crosstalk_strength
      device circuit
  in
  Metrics.incr runs_total;
  let estimate =
    Estimator.run ?config ?jobs ?pool rng
      (chunk_kernel failure_probabilities)
  in
  Metrics.add trials_total estimate.Estimator.trials;
  Metrics.add chunks_total (Estimator.chunks_for estimate.Estimator.trials);
  estimate

let pp_result ppf r =
  Format.fprintf ppf "PST = %.4f +/- %.4f  (%d/%d trials)" r.pst r.ci95
    r.successes r.trials

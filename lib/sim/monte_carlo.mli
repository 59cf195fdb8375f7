(** Monte-Carlo fault-injection simulator (paper Section 4.3, Figure 10).

    A trial executes the physical circuit and injects an error into each
    operation with that operation's calibrated probability (and into each
    active qubit with its coherence-decay probability over idle time); a
    trial with any injected error is a failed trial.  PST is the fraction
    of error-free trials.  The paper runs 1M trials per workload; the
    engine precomputes per-operation failure probabilities so trials are
    a vector of Bernoulli draws with early exit.

    Trials are partitioned into fixed-size chunks, each drawing from its
    own {!Vqc_rng.Rng.split} child stream derived in chunk-index order,
    and fanned across a {!Vqc_engine.Pool} — so the estimate is
    bit-identical for any [jobs] count. *)

open Vqc_circuit

type result = {
  trials : int;
  successes : int;
  pst : float;
  ci95 : float;  (** half-width of the 95% normal-approximation interval *)
}

val failure_probabilities :
  ?coherence:bool ->
  ?coherence_scale:float ->
  ?crosstalk_strength:float ->
  Vqc_device.Device.t ->
  Circuit.t ->
  float array
(** The per-operation failure table a trial Bernoulli-samples: one entry
    per gate/measurement (crosstalk-inflated when [crosstalk_strength] >
    0) plus, when [coherence] (default true), one coherence-decay entry
    per used qubit.  A trial succeeds iff no entry fires.
    @raise Invalid_argument if the circuit uses an uncoupled qubit
    pair. *)

val run :
  ?coherence:bool ->
  ?coherence_scale:float ->
  ?crosstalk_strength:float ->
  ?jobs:int ->
  trials:int ->
  Vqc_rng.Rng.t ->
  Vqc_device.Device.t ->
  Circuit.t ->
  result
(** [crosstalk_strength] (default 0, the paper's independent-error model)
    inflates simultaneous adjacent two-qubit gates per {!Crosstalk}.
    [jobs] (default 1) fans the trial chunks across that many domains;
    the result is the same for every [jobs] value.  [jobs] beyond the
    number of {!Estimator.chunk_trials}-sized chunks ([ceil(trials /
    4096)]) buys nothing — the extra workers would idle — so the fan-out
    is clamped to the chunk count ({!Estimator.effective_jobs};
    [trials = 1, jobs = 8] runs exactly like [jobs = 1], same result
    included).  Each chunk runs the {!Mc_kernel} flat kernel.
    @raise Invalid_argument if [trials <= 0], [jobs < 1], or the circuit
    uses an uncoupled qubit pair. *)

val run_adaptive :
  ?coherence:bool ->
  ?coherence_scale:float ->
  ?crosstalk_strength:float ->
  ?jobs:int ->
  ?pool:Vqc_engine.Pool.t ->
  ?config:Estimator.config ->
  Vqc_rng.Rng.t ->
  Vqc_device.Device.t ->
  Circuit.t ->
  Estimator.estimate
(** Adaptive counterpart of {!run}: streams the same trial chunks (same
    failure table, same chunk layout, same per-chunk RNG streams)
    through {!Estimator.run}, stopping once the configured precision is
    met or the [max_trials] budget is exhausted.  With
    [config.precision = 0] the run never stops early, so its successes
    over [config.max_trials] trials equal those of
    [run ~trials:config.max_trials] bit for bit.  Passing [pool] reuses
    an existing pool ([jobs] is then ignored).
    @raise Invalid_argument on an invalid [config], [jobs < 1], or an
    uncoupled qubit pair. *)

val pp_result : Format.formatter -> result -> unit

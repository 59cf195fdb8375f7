(** Flat Monte-Carlo chunk kernel.

    Runs {!Monte_carlo}'s per-chunk trial loop over flat buffers: the
    failure-probability table is precompiled to one integer threshold
    per event, the xoshiro256** state lives in an int64 [Bigarray]
    (reads/writes are unboxed), and each Bernoulli draw is a native int
    compare — no float boxing, no Int64 record stores, branch-light.

    The kernel is {e bit-identical} to the straightforward loop over
    [Rng.bernoulli]: same draw stream (events with probability [<= 0]
    or [>= 1] consume no draw, a trial stops drawing at its first
    failure), same success and draw counts, and the caller's generator
    ends in the same state.  The threshold encoding is exact — see the
    proof sketch in the implementation — so this is an optimization,
    never an approximation.  [test/test_kernels.ml] holds it to the
    list-based oracle of the private test kit ([test/kit/mc_oracle.ml]). *)

type table

val of_probabilities : float array -> table
(** Compile a per-event failure-probability table (the output of
    {!Monte_carlo.failure_probabilities}) into integer thresholds. *)

val events : table -> int
(** Number of events per trial. *)

val run_chunk : table -> Vqc_rng.Rng.t -> int -> int * int
(** [run_chunk table rng count] runs [count] trials, advancing [rng]
    exactly as the reference loop would, and returns
    [(successes, draws)] where [draws] counts visited events (the
    telemetry the reference loop reports). *)

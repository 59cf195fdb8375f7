(* The Monte-Carlo specification oracle (paper Section 4.3, Figure 10):
   the list-based trial loop the flat kernel (Vqc_sim.Mc_kernel) and
   Monte_carlo.run are held to, bit for bit.  It is written from the
   specification, not shared with the library, so the two sides can
   only agree by both being right. *)

module Rng = Vqc_rng.Rng
module Monte_carlo = Vqc_sim.Monte_carlo
module Estimator = Vqc_sim.Estimator

(* One chunk of [count] trials against a failure table, returning
   (successes, draws): a trial visits events in order, counts each visit
   as a draw, and stops at its first failure.  Rng.bernoulli consumes no
   generator draw for p <= 0 or p >= 1. *)
let chunk probabilities rng count =
  let events = Array.length probabilities in
  let successes = ref 0 in
  let draws = ref 0 in
  for _ = 1 to count do
    let rec error_free i =
      i >= events
      || (incr draws;
          (not (Rng.bernoulli rng probabilities.(i))) && error_free (i + 1))
    in
    if error_free 0 then incr successes
  done;
  (!successes, !draws)

(* [Monte_carlo.run] by the specification: chunk k draws from the k-th
   Rng.split child of [rng] over the same failure table.  Estimator.run
   with precision 0 never stops early, so it walks exactly that chunk
   layout. *)
let run ?jobs ~trials rng device circuit =
  let probabilities = Monte_carlo.failure_probabilities device circuit in
  let config =
    { Estimator.default_config with precision = 0.0; max_trials = trials }
  in
  let estimate =
    Estimator.run ~config ?jobs rng (fun _ rng count ->
        fst (chunk probabilities rng count))
  in
  let successes = estimate.Estimator.successes in
  let pst = float_of_int successes /. float_of_int trials in
  let ci95 =
    1.96 *. sqrt (Float.max 0.0 (pst *. (1.0 -. pst)) /. float_of_int trials)
  in
  { Monte_carlo.trials; successes; pst; ci95 }

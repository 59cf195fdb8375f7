(** Compilation-as-a-service: the orchestrator behind [vqc-serve].

    A service owns four pieces: a calibration {!Epoch} rotation, a
    bounded {!Admission} queue, a content-addressed {!Plan_cache}, and a
    persistent {!Vqc_engine.Pool} of worker domains.  Requests are
    {!submit}ted (possibly rejected — backpressure is typed, never an
    exception) and processed in admission order by {!flush}:

    + each request resolves to (circuit, device, policy) — catalog
      lookup or inline-QASM parse, policy-label lookup, epoch pin;
    + the plan cache is consulted {e serially, in request order}, so
      hit/miss patterns are a pure function of the request stream;
    + distinct missing keys compile {e in parallel} on the pool
      (duplicates within a batch compile once);
    + finished plans enter the cache in request order and responses are
      assembled in request order.

    Determinism contract: every response's deterministic fields are a
    pure function of (request stream, service configuration, epoch
    rotation).  Worker count and cache temperature can change only the
    ["nd"] section of a response — asserted by the test suite across
    [jobs 1/4] and cache on/off. *)

type config = {
  jobs : int;  (** worker domains for batch compilation (>= 1) *)
  cache_capacity : int;
  cache_enabled : bool;
  queue_limit : int;
  verify : bool;
      (** statically verify every plan ({!Vqc_check.Verify}) before it
          is served — fresh compiles {e and} cache hits.  A plan that
          fails verification becomes a [Protocol.Invalid] response and
          never enters the cache.  Counted under [service.verify.*]. *)
  drift : Vqc_drift.Retention.policy option;
      (** selective epoch invalidation: on an epoch move, score each
          cached plan against its compile-time calibration
          ({!Vqc_drift.Staleness}), retain the ones within the
          threshold after re-verification, and recompile the demoted
          rest in the background on the worker pool.  [None] — or a
          {!Vqc_drift.Retention.wholesale} policy ([threshold <= 0]) —
          keeps the paper's wholesale flush, byte-identically. *)
}

val default_config : config
(** jobs 1, capacity 256, cache enabled, queue limit 64, verify off,
    drift off. *)

type t

type store
(** A cross-session compile store (the "L2" behind the per-session
    caches of the TCP server).  Content-addressed like the session
    cache — a plan for (circuit, calibration, policy) is correct for
    as long as those fingerprints name it — so it is {e never}
    invalidated on epoch moves and can be shared by sessions pinned to
    different epochs.  Consulted after a session-cache miss; written
    through on every fresh compile.  Store temperature is visible only
    in metrics ([serve.store.*]) and the ["nd"] response section:
    deterministic response fields never depend on it. *)

val shared_store : capacity:int -> unit -> store
(** @raise Invalid_argument if [capacity < 1]. *)

val create : ?config:config -> ?pool:Vqc_engine.Pool.t -> ?store:store -> Epoch.t -> t
(** [?pool] shares an existing worker pool instead of spawning one —
    {!shutdown} then leaves the pool running (its owner stops it).
    [?store] attaches a shared compile store.  Both seams exist for the
    TCP server, whose sessions are each a service over common workers
    and a common store.
    @raise Invalid_argument on a non-positive [jobs], [cache_capacity]
    or [queue_limit]. *)

val config : t -> config
val epoch_manager : t -> Epoch.t

val submit : t -> Protocol.request -> (unit, Admission.reason) result
(** Queue a request for the next {!flush}. *)

val pending : t -> int

val flush : t -> Protocol.response list
(** Compile everything queued (batched onto the pool) and return the
    responses in admission order.  Never raises on a bad request —
    resolution and compilation failures become [Failed] responses, and
    (with [verify] on) plans the verifier refuses become [Invalid]
    responses. *)

val advance_epoch : t -> int * Epoch.migration
(** Rotate the calibration epoch and run the configured invalidation
    path — the wholesale flush by default (one {!Plan_cache.migrate}
    keeping exactly the plans keyed by the live calibration), the drift
    pipeline when [config.drift] carries a non-wholesale policy, nothing
    with the cache disabled.  Returns the new epoch index and the
    migration tally, which is also traced as an [epoch_advance]
    event. *)

val set_epoch : t -> int -> Epoch.migration
(** Jump to a specific epoch (same invalidation path as
    {!advance_epoch}).
    @raise Invalid_argument when the epoch is out of range. *)

val shutdown : t -> unit
(** Stop the worker domains (no-op when the pool was supplied via
    [?pool] — the owner stops it).  Idempotent; the service must not
    be flushed afterwards. *)

val with_service : ?config:config -> Epoch.t -> (t -> 'a) -> 'a
(** Run with a fresh service, shutting it down afterwards (also on
    exception). *)

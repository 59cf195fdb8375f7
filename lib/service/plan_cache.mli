(** Content-addressed LRU plan cache.

    The paper's runtime model recompiles every program at every
    calibration update (Section 6, footnote 2); for a service that is a
    cache problem: identical (circuit, calibration, policy) triples
    within one calibration epoch should compile once.  Keys are the
    canonical fingerprints of {!Fingerprint}, so cache identity follows
    content, never object identity.

    The cache is domain-safe and bounded: one LRU list under one mutex.
    A session's cache has a single owner, so its lock never contends;
    the TCP server's shared store is the one instance several domains
    touch.

    Lookups, insertions, evictions and epoch invalidations are counted
    in {!Vqc_obs.Metrics} under [<metrics_prefix>.*] (default
    [service.cache.*]) — the warm/cold behaviour of the serving layer
    is observable without touching its output.

    Determinism contract: the cache stores {e finished plans} keyed by
    content, so a cache hit returns byte-for-byte the value a fresh
    compile would produce (the compiler is deterministic).  Whether a
    response was served hot or cold is visible only in metrics and in
    the response's non-deterministic ["nd"] section. *)

type key = {
  circuit_fp : string;
  calibration_fp : string;
  policy : string;  (** policy label, e.g. ["vqa+vqm"] *)
}

val key_to_string : key -> string
(** Compact rendering for traces and error messages. *)

type 'a t

val create : ?metrics_prefix:string -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] — [metrics_prefix] defaults to
    ["service.cache"].  Instances sharing a prefix share counters (the
    registry finds-or-creates), so their traffic sums naturally.
    @raise Invalid_argument if [capacity < 1]. *)

val length : 'a t -> int

val find : 'a t -> key -> 'a option
(** LRU-touching lookup.  Counts [<prefix>.hits] or [<prefix>.misses]. *)

val insert : 'a t -> key -> 'a -> unit
(** Insert (or refresh) a plan; evicts the least-recently-used entry
    when the cache is full, counting [<prefix>.evictions]. *)

val entries : 'a t -> (key * 'a) list
(** Snapshot in LRU order, most recent first.  The order is a
    deterministic function of the preceding request stream, unlike a
    hash-table fold — selective invalidation walks this list so its
    scoring/recompile order is reproducible. *)

type 'a migration = {
  kept : int;  (** entries that survived, re-keyed or not *)
  dropped : (key * 'a) list;
      (** evicted entries, in {!entries} order *)
}

val migrate : 'a t -> decide:(key -> 'a -> key option) -> 'a migration
(** The one bulk invalidation: walk every entry in {!entries} order and
    apply [decide].  [Some key'] keeps the entry (re-keying it in place
    when [key' <> key]; if [key'] is already occupied the stale
    duplicate is dropped but still counted as kept, since the logical
    plan survives); [None] evicts it.  Counts [<prefix>.retained] for
    the kept and [<prefix>.invalidated] for the dropped.  On an epoch
    move the service runs it either as the paper's wholesale flush
    (keep exactly the plans keyed by the live calibration) or as the
    drift pipeline's selective retention.

    [decide] runs under the cache lock: it must not call back into the
    cache (the mutex is not reentrant). *)

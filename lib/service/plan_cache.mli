(** Content-addressed, lock-striped LRU plan cache.

    The paper's runtime model recompiles every program at every
    calibration update (Section 6, footnote 2); for a service that is a
    cache problem: identical (circuit, calibration, policy) triples
    within one calibration epoch should compile once.  Keys are the
    canonical fingerprints of {!Fingerprint}, so cache identity follows
    content, never object identity.

    The cache is domain-safe and bounded.  Internally it is split into
    [shards] lock-striped segments; a key's segment is a deterministic
    FNV-1a hash of its fingerprints, so concurrent sessions touching
    different keys rarely contend on the same mutex.  With [shards = 1]
    (the default) the cache is byte-identical in behaviour to the
    pre-sharding single-mutex implementation: one segment, one LRU
    list, same eviction order — the service goldens enforce this.
    Each segment's capacity is [capacity / shards] (the first
    [capacity mod shards] segments get one extra slot), so eviction is
    per-segment LRU, still bounded by [capacity] overall.

    Lookups, insertions, evictions and epoch invalidations are counted
    in {!Vqc_obs.Metrics} under [<metrics_prefix>.*] (default
    [service.cache.*]); counters are aggregated across segments — the
    warm/cold behaviour of the serving layer is observable without
    touching its output.

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

val create : ?shards:int -> ?metrics_prefix:string -> capacity:int -> unit -> 'a t
(** [create ~capacity ()] — [shards] defaults to [1] (single-segment,
    byte-identical to the historical cache); [metrics_prefix] defaults
    to ["service.cache"].  Instances sharing a prefix share counters
    (the registry finds-or-creates), so their traffic sums naturally.
    @raise Invalid_argument if [capacity < 1], [shards < 1], or
    [shards > capacity]. *)

val length : 'a t -> int

val find : 'a t -> key -> 'a option
(** LRU-touching lookup.  Counts [<prefix>.hits] or [<prefix>.misses]. *)

val insert : 'a t -> key -> 'a -> unit
(** Insert (or refresh) a plan; evicts the least-recently-used entry of
    the key's segment when that segment is full, counting
    [<prefix>.evictions]. *)

val retain : 'a t -> (key -> bool) -> int
(** [retain t keep] drops every entry whose key fails [keep] and
    returns the number dropped, counting [<prefix>.invalidated]
    for the victims and [<prefix>.retained] for the survivors.
    Used by the epoch manager: on epoch advance, plans compiled against
    superseded calibrations are invalidated — the paper's
    recompile-per-calibration regime, realized as cache churn. *)

val entries : 'a t -> (key * 'a) list
(** Snapshot in per-segment LRU order (most recent first within each
    segment, segments in index order).  The order is a deterministic
    function of the preceding request stream, unlike a hash-table fold
    — selective invalidation walks this list so its scoring/recompile
    order is reproducible.  With [shards = 1] this is exactly the
    historical whole-cache LRU order. *)

type 'a migration = {
  kept : int;  (** entries that survived, re-keyed or not *)
  dropped : (key * 'a) list;
      (** evicted entries, in {!entries} order *)
}

val migrate : 'a t -> decide:(key -> 'a -> key option) -> 'a migration
(** Selective epoch migration: walk every entry in {!entries} order and
    apply [decide].  [Some key'] keeps the entry (re-keying it, possibly
    into a different segment, when [key' <> key]; if [key'] is already
    occupied the stale duplicate is dropped but still counted as kept,
    since the logical plan survives); [None] evicts it.  Counts
    [<prefix>.retained] / [<prefix>.invalidated] like {!retain}.

    [decide] runs under the owning segment's lock: it must not call
    back into the cache (the mutexes are not reentrant).  Cross-segment
    re-keys are applied after the source segment's lock is released, so
    no two segment locks are ever held at once. *)

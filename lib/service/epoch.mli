(** Calibration epoch manager.

    The paper's runtime model (Section 6, footnote 2) recompiles every
    program whenever the machine publishes a new calibration — roughly
    twice a day on the IBM machines of Section 3.  The service models
    that cadence as a rotation over a fixed set of {e epochs}, each a
    full {!Vqc_device.Device.t} (same topology, that epoch's
    calibration): requests compile against the current epoch unless they
    pin one explicitly, and {!advance} rotates to the next epoch.  The
    cursor touches no cache: {!Service.advance_epoch} moves it and then
    invalidates every cached plan compiled against a superseded
    calibration — so the recompile-per-calibration regime of the paper
    shows up as measurable cache churn ([service.cache.invalidated])
    rather than as an opaque cost.

    Epoch sources: a synthetic multi-day {!Vqc_device.History} (the
    52-day model of paper Figure 8) or explicit devices, e.g. parsed
    from IBM calibration CSVs via {!Vqc_device.Calibration_io}. *)

type t

val of_devices : Vqc_device.Device.t list -> t
(** One epoch per device, in list order, starting at epoch 0.
    @raise Invalid_argument on an empty list. *)

val of_history :
  ?gate_times:Vqc_device.Device.gate_times ->
  name:string ->
  coupling:(int * int) list ->
  Vqc_device.History.t ->
  t
(** One epoch per history day over a fixed topology. *)

val fork : t -> t
(** An independent cursor over the {e same} device rotation: the fork
    starts at the parent's current epoch and advances on its own.  The
    TCP server forks the boot epoch manager per session, so a client's
    epoch-advance moves only that client's pin — a prerequisite of the
    per-client determinism contract. *)

val epochs : t -> int
val current : t -> int

val device : t -> int -> Vqc_device.Device.t
(** @raise Invalid_argument when the epoch is out of range. *)

val fingerprint : t -> int -> string
(** Calibration fingerprint of an epoch (precomputed at construction).
    @raise Invalid_argument when the epoch is out of range. *)

val find_fingerprint : t -> string -> int option
(** Epoch index whose calibration fingerprint matches, if any — how a
    drift migration recovers the compile-time device of a cached plan
    from its cache key. *)

type migration = {
  retained : int;  (** plans kept in the cache across the move *)
  reverified : int;
      (** retention candidates replayed through the static checker *)
  recompiled : int;  (** plans recompiled in the background *)
  invalidated : int;  (** plans dropped from the cache *)
}
(** The tally of one epoch move's cache invalidation, as
    {!Service.advance_epoch} reports it. *)

val advance : t -> int * int
(** Rotate to the next epoch (wrapping) and return [(previous, next)].
    Counts [service.epoch.advances] and sets the
    [service.epoch.current] gauge.  With a single epoch the rotation
    wraps to itself. *)

val set : t -> int -> int
(** Jump to a specific epoch and return the previous one; counted like
    {!advance}.
    @raise Invalid_argument when the epoch is out of range. *)

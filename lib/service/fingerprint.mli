(** Content fingerprints for plan-cache keys.

    The plan cache is addressed by {e what is being compiled against
    what}: a circuit fingerprint, a calibration fingerprint, and a
    policy label.  Fingerprints are FNV-1a 64-bit digests of canonical
    serializations, rendered as 16 lowercase hex digits — stable across
    runs, processes, and machines (the digest depends only on the bytes,
    never on pointer identity or hash-table seeds), which is what lets
    [vqc-serve] responses carry them as deterministic fields.

    FNV-1a is not collision-resistant in an adversarial sense; it is a
    cache key, not a security boundary.  Two circuits that collide would
    share a cache line and get each other's plan — at 64 bits that needs
    ~2^32 distinct entries in one cache before it is likely, far beyond
    any bounded cache this service runs. *)

val of_string : string -> string
(** FNV-1a 64 over the raw bytes, as 16 lowercase hex digits. *)

val circuit : Vqc_circuit.Circuit.t -> string
(** Digest of the canonical OpenQASM rendering ({!Vqc_circuit.Qasm}),
    so structurally equal circuits fingerprint identically however they
    were built (catalog entry, inline QASM, programmatic). *)

val calibration : Vqc_device.Calibration.t -> string
(** Digest of {!Vqc_device.Calibration.to_string} (qubit records in
    index order, links sorted) — one fingerprint per calibration epoch. *)

(** Structured static-analysis diagnostics.

    Every finding of the {!Vqc_check} linter, plan verifier and source
    self-lint — and every positioned {!Vqc_circuit.Qasm} parse error —
    is one value of {!t}: a stable code, a severity, a human message and
    a location.  The type lives in its own library so the circuit layer
    can report through it without depending on the checkers (which in
    turn depend on the circuit layer).

    Stable codes (never renumber; retire by leaving a gap).  The
    machine-readable form of this table is {!all_codes}; SARIF rule
    metadata ({!Vqc_check.Sarif}) is generated from it.

    {b VQC00x — circuit & QASM lint} ([Vqc_check.Lint], QASM front end):

    - [VQC000] — unstructured QASM parse error
    - [VQC001] — qubit or classical-bit index out of range
    - [VQC002] — gate applied to a qubit after its measurement
    - [VQC003] — declared qubit is never used
    - [VQC004] — two-qubit gate with identical operands
    - [VQC005] — trivially cancellable adjacent gate pair

    {b VQC10x — plan verification} ([Vqc_check.Verify], translation
    validation of compiled plans):

    - [VQC101] — two-qubit gate on a pair that is not a coupler
    - [VQC102] — replay mismatch: physical gate matches no ready source
      gate (dependency order or semantics broken)
    - [VQC103] — measurement mapping broken (wrong qubit or cbit)
    - [VQC104] — SWAP count disagrees with the router's accounting
    - [VQC105] — final layout disagrees with the replayed permutation
    - [VQC106] — source gates missing from the physical circuit
    - [VQC107] — calibration sanity violation (dead qubit/link, error
      rate outside [0, 1])
    - [VQC108] — malformed layout or circuit shape

    {b VQC12x — calibration-data lint} ([Vqc_check.Calib_lint], over
    every profile {!Vqc_device.Calibration_model} can produce and over
    multi-day histories):

    - [VQC120] — error rate non-finite, negative or above 1
    - [VQC121] — coherence or readout figure outside its physical range
    - [VQC122] — T2 exceeds the [2 * T1] dephasing bound
    - [VQC123] — qubit effectively dead (error at ceiling, vanished
      coherence, or no live incident coupler)
    - [VQC124] — coupling map and link calibration disagree
      (uncalibrated coupler, or calibrated non-coupler)
    - [VQC125] — calibration figure frozen across days (stuck sensor)

    {b VQC13x — serving backpressure} ([Vqc_service.Admission] and the
    [Vqc_serve_net] TCP front end; rendered on the wire, identically on
    the stdin and TCP paths):

    - [VQC130] — per-session admission queue full; the request is
      rejected with a typed [rejected] response, never dropped silently
    - [VQC131] — server at its [--clients-max] connection capacity; the
      connection is refused with one [rejected] line and closed

    {b VQC2xx — repository source analysis} ([Vqc_check.Rules], over
    the comment/string-aware token stream of every [.ml] source):

    - [VQC201] — determinism-hygiene violation (environment-seeded RNG;
      wall/CPU-clock read outside the allow-listed timing sites)
    - [VQC202] — stdout print in library code
    - [VQC210] — top-level mutable state that is neither [Atomic] nor
      registered as lock-protected
    - [VQC211] — [Mutex.lock] without a matching unlock/protect shape
    - [VQC212] — nested lock acquisition outside the canonical order
    - [VQC213] — two channels built from one [*_of_descr] descriptor are
      both closed (the second close can hit a reused fd number)

    Rendering is deterministic: equal diagnostics render to equal JSON,
    and {!render_list} sorts before printing. *)

type severity =
  | Error  (** the artifact is wrong; reject it *)
  | Warning  (** almost certainly a mistake, but well-formed *)
  | Info  (** improvement opportunity *)

type location =
  | Nowhere
  | Line of int  (** 1-based line in a QASM source text *)
  | Gate of int  (** 0-based gate index in a circuit *)
  | File_line of {
      file : string;
      line : int;  (** 1-based line in a repository source file *)
    }

type t = {
  code : string;  (** stable identifier, e.g. ["VQC101"] *)
  severity : severity;
  message : string;
  location : location;
}

(** {1 Codes} *)

val code_parse : string
val code_index_range : string
val code_gate_after_measure : string
val code_unused_qubit : string
val code_identical_operands : string
val code_cancellable_pair : string
val code_illegal_coupling : string
val code_replay_mismatch : string
val code_measurement_mapping : string
val code_swap_count : string
val code_final_layout : string
val code_unreplayed_gates : string
val code_calibration : string
val code_malformed_plan : string
val code_calib_error_range : string
val code_calib_coherence : string
val code_calib_t2_bound : string
val code_calib_dead_qubit : string
val code_calib_coupler : string
val code_calib_stuck_sensor : string
val code_queue_full : string
val code_server_full : string
val code_determinism : string
val code_stdout_hygiene : string
val code_unguarded_state : string
val code_lock_shape : string
val code_lock_order : string
val code_descriptor_owner : string

val all_codes : (string * string) list
(** Every assigned code paired with its one-line description, in code
    order — the machine-readable code table. *)

val describe : string -> string
(** One-line description of a code (["unknown diagnostic code"] for
    anything not in {!all_codes}) — used as SARIF rule metadata. *)

(** {1 Construction} *)

val make : ?location:location -> severity -> string -> string -> t
(** [make ~location severity code message].  [location] defaults to
    {!Nowhere}. *)

val error : ?location:location -> string -> string -> t
val warning : ?location:location -> string -> string -> t
val info : ?location:location -> string -> string -> t

val errorf :
  ?location:location -> string -> ('a, unit, string, t) format4 -> 'a

val warningf :
  ?location:location -> string -> ('a, unit, string, t) format4 -> 'a

val infof : ?location:location -> string -> ('a, unit, string, t) format4 -> 'a

(** {1 Inspection} *)

val is_error : t -> bool

val has_errors : t list -> bool
(** Whether any diagnostic has severity {!Error}. *)

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val compare : t -> t -> int
(** Order by location (files, then lines, then gate indices), then code,
    then message — the order {!render_list} prints in. *)

(** {1 Rendering} *)

val to_json : t -> Vqc_obs.Json.t
(** One JSON object: [code], [severity], [message], plus the location's
    fields ([line], [gate], or [file] + [line]); key order fixed. *)

val to_string : t -> string
(** Human-readable one-liner, e.g.
    ["error[VQC001] line 3: index 9 out of range ..."]. *)

val render_list : t list -> string
(** Deterministic JSON array, one diagnostic per line (["[]"] when
    empty); the input is sorted with {!compare} first. *)

val pp : Format.formatter -> t -> unit

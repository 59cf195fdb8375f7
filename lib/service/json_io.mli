(** Strict JSON parsing: the repo's one JSON reader.

    Emission lives in {!Vqc_obs.Json}; this module reads the same
    {!Vqc_obs.Json.t} tree back, so a parsed value can be echoed
    verbatim (request ids round-trip through responses).  Its callers:
    the [vqc-serve] wire {!Protocol} (one JSON object per request
    line), the [bench kernels --check] baseline gate, and the test
    suites, which check trace, SARIF and response lines with it.

    It accepts exactly RFC 8259 JSON: no comments, no trailing commas,
    no unquoted keys, and numbers only in the grammar
    [-? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?] — so
    [+1], [01], [.5] and [1.] are errors.

    Numbers without [.], [e] or [E] that fit in an OCaml [int] parse as
    [Int]; everything else parses as [Float].  [\u] escapes decode to
    UTF-8 (surrogate pairs included). *)

val parse : string -> (Vqc_obs.Json.t, string) result
(** Parse one complete JSON value.  [Error message] includes the byte
    offset of the failure. *)

(** {1 Accessors} *)

val member : string -> Vqc_obs.Json.t -> Vqc_obs.Json.t option
(** Field lookup on an [Obj]; [None] on a missing key or a non-object. *)

val string_value : Vqc_obs.Json.t -> string option
val int_value : Vqc_obs.Json.t -> int option
(** [int_value] accepts [Int] and integral [Float]s. *)

val float_value : Vqc_obs.Json.t -> float option
(** [float_value] accepts any JSON number. *)

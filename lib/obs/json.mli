(** Minimal JSON tree and compact serializer for the trace sink.

    Emission only — the observability layer never parses JSON; the
    reader is [Vqc_service.Json_io], and the two agree on every finite
    tree ([parse (to_string v) = Ok v], property-tested).  Strings
    are escaped per RFC 8259; non-finite floats (which JSON cannot
    represent) serialize as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line, no spaces) rendering — one trace event per
    line stays one line. *)

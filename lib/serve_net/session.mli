(** One NDJSON serving session over a channel pair.

    This is {e the} protocol loop of [vqc-serve]: the stdin front end
    runs it over [stdin]/[stdout], and every accepted TCP connection of
    {!Server} runs it over the socket's channels — single-client TCP
    responses are byte-identical to the stdin loop by construction,
    because they are the same code.

    Per session: requests batch into the session's {!Vqc_service}
    ([config.batch] accepted requests per flush, plus an implicit flush
    on every control line and at EOF), responses leave in input order,
    and a full admission queue yields structured [rejected] responses
    (carrying the [VQC130] code) instead of an exception.

    Determinism contract: the deterministic fields of the response
    stream are a pure function of the input stream and the service
    configuration — independent of [--jobs], cache shard count, store
    temperature, and whatever other sessions do concurrently (sessions
    share only the worker pool and the content-addressed store, neither
    of which can change a deterministic field). *)

type config = {
  batch : int;  (** flush the admission queue every [batch] accepts *)
  max_line : int;
      (** refuse input lines beyond this many bytes; an oversized line
          ends the session with a typed error response *)
}

val default_config : config
(** batch 16, max_line 1 MiB. *)

type outcome =
  | Eof  (** client closed its stream; every response was written *)
  | Oversized of int
      (** an input line exceeded [max_line] bytes; pending responses
          and a final typed error were written before giving up *)
  | Disconnected
      (** the peer vanished mid-session (broken pipe / reset); some
          responses may not have been delivered *)

val run : ?config:config -> Vqc_service.Service.t -> in_channel -> out_channel -> outcome
(** Serve one session to completion.  Never raises on malformed input
    — parse errors become [Failed] responses (carrying the line's
    ["id"] when the line is a JSON object) and the loop continues;
    only the conditions in {!outcome} end it. *)

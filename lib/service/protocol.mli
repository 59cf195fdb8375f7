(** Wire protocol of [vqc-serve]: newline-delimited JSON.

    One request object per input line, one response object per output
    line, in request order.  Requests:

    {v
    {"id": 1, "workload": "bv-16", "policy": "vqa+vqm"}
    {"id": "job-7", "qasm": "OPENQASM 2.0; ...", "epoch": 3}
    {"op": "advance_epoch"}
    v}

    - exactly one of ["workload"] (catalog name) or ["qasm"] (inline
      OpenQASM 2.0) selects the circuit;
    - ["policy"] is optional (default {!Policies.default_label});
    - ["epoch"] optionally pins a calibration epoch (default: the
      service's current epoch);
    - any of ["precision"], ["max_trials"], ["mc_seed"] additionally
      requests the plan's PST: the exact product of per-operation
      success probabilities on the epoch's device
      ({!Vqc_sim.Reliability.pst}), computed per request.  The three
      members only trigger the rider; each must be a number, but its
      value is otherwise ignored.  The value renders top-level as
      [{"pst":p,"half_width":0,"stop":"exact"}], not under ["nd"];
    - ["id"] is echoed back verbatim (any JSON value), also on the
      error response to an object that fails request parsing;
    - control lines carry ["op"]: [advance_epoch], [set_epoch] (with
      ["epoch"]), or [flush].

    Responses always carry ["status"]: ["ok"] (a compiled plan or a
    control acknowledgement), ["rejected"] (admission control),
    ["invalid"] (the plan verifier refused the plan; see
    {!Vqc_check.Verify}), or ["error"].  Every deterministic field — layout, SWAP count,
    estimated log gate reliability, fingerprints — is a top-level
    field; anything that can vary between runs of the same input
    (latency, cache temperature) is quarantined under ["nd"], exactly
    like {!Vqc_obs.Trace} events, so consumers and tests strip
    non-determinism in one place. *)

type source =
  | Workload of string  (** catalog name, e.g. ["bv-16"] *)
  | Inline_qasm of string

type request = {
  id : Vqc_obs.Json.t option;  (** echoed verbatim in the response *)
  source : source;
  policy : string;  (** policy label; validated by the service *)
  epoch : int option;  (** pinned calibration epoch *)
  estimate : bool;  (** the request carries the PST rider *)
}

type control =
  | Advance_epoch
  | Set_epoch of int
  | Flush

type input =
  | Compile of request
  | Control of control

val parse_line : string -> (input, string) result
(** Parse one NDJSON line. *)

val line_id : string -> Vqc_obs.Json.t option
(** The ["id"] member of a line that is a JSON object, [None] for any
    other line — so the failure reply to a line {!parse_line} refuses
    still carries the id the client sent. *)

(** The deterministic payload of a successful compilation. *)
type plan = {
  policy : string;
  epoch : int;
  qubits : int;  (** program qubits *)
  layout : int array;  (** initial program→physical assignment *)
  swaps : int;  (** SWAPs inserted by routing *)
  gates : int;  (** total gates of the physical circuit *)
  depth : int;  (** dependency depth of the physical circuit *)
  log_reliability : float;  (** estimated [sum log p_success] *)
  circuit_fp : string;
  calibration_fp : string;
}

type cache_status =
  | Hit
  | Miss
  | Bypass  (** cache disabled *)

val cache_status_to_string : cache_status -> string

type response =
  | Compiled of {
      id : Vqc_obs.Json.t option;
      plan : plan;
      estimate : float option;
          (** the plan's exact PST, present iff the request asked for
              it; deterministic, rendered top-level *)
      cache : cache_status;
      seconds : float;  (** wall-clock service time; rendered under nd *)
    }
  | Rejected of {
      id : Vqc_obs.Json.t option;
      reason : Admission.reason;
    }
  | Invalid of {
      id : Vqc_obs.Json.t option;
      diagnostics : Vqc_diag.Diagnostic.t list;
          (** the verifier's findings; deterministic, rendered top-level *)
      cache : cache_status;
      seconds : float;
    }  (** verification was requested and the plan failed it *)
  | Failed of {
      id : Vqc_obs.Json.t option;
      error : string;
    }
  | Control_ack of {
      op : string;
      epoch : int;  (** the service's epoch after the operation *)
      migration : Epoch.migration option;
          (** for epoch moves, the cache-migration tally (retained /
              reverified / recompiled / invalidated), rendered as four
              integer fields; [None] (e.g. for [flush]) renders
              nothing.  Deterministic: a pure function of the request
              stream, epoch history and drift configuration. *)
    }

val render : response -> string
(** One JSON object, no trailing newline; ["nd"] is always the last
    field when present. *)

module Json = Vqc_obs.Json

type source =
  | Workload of string
  | Inline_qasm of string

type request = {
  id : Json.t option;
  source : source;
  policy : string;
  epoch : int option;
  estimate : bool;
}

type control =
  | Advance_epoch
  | Set_epoch of int
  | Flush

type input =
  | Compile of request
  | Control of control

let parse_control json op =
  match op with
  | "advance_epoch" -> Ok (Control Advance_epoch)
  | "flush" -> Ok (Control Flush)
  | "set_epoch" -> begin
    match Option.bind (Json_io.member "epoch" json) Json_io.int_value with
    | Some epoch -> Ok (Control (Set_epoch epoch))
    | None -> Error "set_epoch needs an integer \"epoch\" field"
  end
  | other -> Error (Printf.sprintf "unknown op %S" other)

let parse_request json =
  let ( let* ) = Result.bind in
  (* an absent member is [None]; a present one must convert *)
  let optional name conv what =
    match Json_io.member name json with
    | None -> Ok None
    | Some value -> begin
      match conv value with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "%S must be %s" name what)
    end
  in
  let workload = Option.bind (Json_io.member "workload" json) Json_io.string_value in
  let qasm = Option.bind (Json_io.member "qasm" json) Json_io.string_value in
  let* source =
    match (workload, qasm) with
    | Some _, Some _ -> Error "request has both \"workload\" and \"qasm\""
    | Some name, None -> Ok (Workload name)
    | None, Some text -> Ok (Inline_qasm text)
    | None, None -> Error "request needs a \"workload\" or \"qasm\" field"
  in
  let* policy = optional "policy" Json_io.string_value "a string" in
  let* epoch = optional "epoch" Json_io.int_value "an integer" in
  (* any of precision / max_trials / mc_seed asks for the plan's PST
     alongside it; their values only have to be numbers *)
  let* precision = optional "precision" Json_io.float_value "a number" in
  let* max_trials = optional "max_trials" Json_io.float_value "a number" in
  let* mc_seed = optional "mc_seed" Json_io.float_value "a number" in
  Ok
    (Compile
       {
         id = Json_io.member "id" json;
         source;
         policy = Option.value policy ~default:Policies.default_label;
         epoch;
         estimate =
           Option.is_some precision || Option.is_some max_trials
           || Option.is_some mc_seed;
       })

let parse_line line =
  match Json_io.parse line with
  | Error message -> Error ("invalid JSON: " ^ message)
  | Ok (Json.Obj _ as json) -> begin
    match Json_io.member "op" json with
    | Some op_value -> begin
      match Json_io.string_value op_value with
      | Some op -> parse_control json op
      | None -> Error "\"op\" must be a string"
    end
    | None -> parse_request json
  end
  | Ok _ -> Error "request must be a JSON object"

let line_id line =
  Result.fold ~ok:(Json_io.member "id") ~error:(fun _ -> None)
    (Json_io.parse line)

type plan = {
  policy : string;
  epoch : int;
  qubits : int;
  layout : int array;
  swaps : int;
  gates : int;
  depth : int;
  log_reliability : float;
  circuit_fp : string;
  calibration_fp : string;
}

type cache_status =
  | Hit
  | Miss
  | Bypass

let cache_status_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"

type response =
  | Compiled of {
      id : Json.t option;
      plan : plan;
      estimate : float option;
      cache : cache_status;
      seconds : float;
    }
  | Rejected of {
      id : Json.t option;
      reason : Admission.reason;
    }
  | Invalid of {
      id : Json.t option;
      diagnostics : Vqc_diag.Diagnostic.t list;
      cache : cache_status;
      seconds : float;
    }
  | Failed of {
      id : Json.t option;
      error : string;
    }
  | Control_ack of {
      op : string;
      epoch : int;
      migration : Epoch.migration option;
    }

let id_field = function None -> [] | Some id -> [ ("id", id) ]

let migration_fields = function
  | None -> []
  | Some m ->
    [
      ("retained", Json.Int m.Epoch.retained);
      ("reverified", Json.Int m.Epoch.reverified);
      ("recompiled", Json.Int m.Epoch.recompiled);
      ("invalidated", Json.Int m.Epoch.invalidated);
    ]

(* The exact PST is a deterministic function of the plan and the
   device, so it renders top-level, not under "nd".  [half_width] and
   [stop] keep the shape of a sampled estimate for existing clients. *)
let estimate_field = function
  | None -> []
  | Some pst ->
    [
      ( "estimate",
        Json.Obj
          [
            ("pst", Json.Float pst);
            ("half_width", Json.Int 0);
            ("stop", Json.String "exact");
          ] );
    ]

let render response =
  let fields =
    match response with
    | Compiled { id; plan; estimate; cache; seconds } ->
      id_field id
      @ [
          ("status", Json.String "ok");
          ("policy", Json.String plan.policy);
          ("epoch", Json.Int plan.epoch);
          ("qubits", Json.Int plan.qubits);
          ( "layout",
            Json.List
              (Array.to_list (Array.map (fun q -> Json.Int q) plan.layout)) );
          ("swaps", Json.Int plan.swaps);
          ("gates", Json.Int plan.gates);
          ("depth", Json.Int plan.depth);
          ("log_reliability", Json.Float plan.log_reliability);
          ("circuit", Json.String plan.circuit_fp);
          ("calibration", Json.String plan.calibration_fp);
        ]
      @ estimate_field estimate
      @ [
          (* run-varying facts — cache temperature and latency — are
             quarantined exactly like Trace's nd section *)
          ( "nd",
            Json.Obj
              [
                ("cache", Json.String (cache_status_to_string cache));
                ("seconds", Json.Float seconds);
              ] );
        ]
    | Invalid { id; diagnostics; cache; seconds } ->
      id_field id
      @ [
          ("status", Json.String "invalid");
          ( "diagnostics",
            Json.List (List.map Vqc_diag.Diagnostic.to_json diagnostics) );
          ( "nd",
            Json.Obj
              [
                ("cache", Json.String (cache_status_to_string cache));
                ("seconds", Json.Float seconds);
              ] );
        ]
    | Rejected { id; reason } ->
      let (Admission.Queue_full { depth; limit }) = reason in
      id_field id
      @ [
          ("status", Json.String "rejected");
          ("reason", Json.String (Admission.reason_to_string reason));
          ("code", Json.String (Admission.code reason));
          ("depth", Json.Int depth);
          ("limit", Json.Int limit);
        ]
    | Failed { id; error } ->
      id_field id
      @ [ ("status", Json.String "error"); ("error", Json.String error) ]
    | Control_ack { op; epoch; migration } ->
      [
        ("status", Json.String "ok");
        ("op", Json.String op);
        ("epoch", Json.Int epoch);
      ]
      @ migration_fields migration
  in
  Json.to_string (Json.Obj fields)

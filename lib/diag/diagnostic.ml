module Json = Vqc_obs.Json

type severity =
  | Error
  | Warning
  | Info

type location =
  | Nowhere
  | Line of int
  | Gate of int
  | File_line of {
      file : string;
      line : int;
    }

type t = {
  code : string;
  severity : severity;
  message : string;
  location : location;
}

let code_parse = "VQC000"
let code_index_range = "VQC001"
let code_gate_after_measure = "VQC002"
let code_unused_qubit = "VQC003"
let code_identical_operands = "VQC004"
let code_cancellable_pair = "VQC005"
let code_illegal_coupling = "VQC101"
let code_replay_mismatch = "VQC102"
let code_measurement_mapping = "VQC103"
let code_swap_count = "VQC104"
let code_final_layout = "VQC105"
let code_unreplayed_gates = "VQC106"
let code_calibration = "VQC107"
let code_malformed_plan = "VQC108"
let code_calib_error_range = "VQC120"
let code_calib_coherence = "VQC121"
let code_calib_t2_bound = "VQC122"
let code_calib_dead_qubit = "VQC123"
let code_calib_coupler = "VQC124"
let code_calib_stuck_sensor = "VQC125"
let code_queue_full = "VQC130"
let code_server_full = "VQC131"
let code_determinism = "VQC201"
let code_stdout_hygiene = "VQC202"
let code_unguarded_state = "VQC210"
let code_lock_shape = "VQC211"
let code_lock_order = "VQC212"
let code_descriptor_owner = "VQC213"

let all_codes =
  [
    (code_parse, "OpenQASM parse error");
    (code_index_range, "register index out of declared range");
    (code_gate_after_measure, "gate acts on a qubit after its measurement");
    (code_unused_qubit, "qubit declared but never used");
    (code_identical_operands, "two-qubit gate with identical operands");
    (code_cancellable_pair, "adjacent gates cancel exactly");
    (code_illegal_coupling, "physical two-qubit gate on an uncoupled pair");
    (code_replay_mismatch, "physical gate matches no ready source gate");
    (code_measurement_mapping, "measurement readout mapping broken");
    (code_swap_count, "inserted-SWAP count disagrees with router accounting");
    (code_final_layout, "declared final layout differs from replayed layout");
    (code_unreplayed_gates, "source gates left over after replay");
    (code_calibration, "plan compiled against insane calibration data");
    (code_malformed_plan, "plan shape malformed");
    (code_calib_error_range, "error rate non-finite, negative or above 1");
    (code_calib_coherence, "coherence or readout figure outside physical range");
    (code_calib_t2_bound, "T2 exceeds the 2*T1 physical bound");
    (code_calib_dead_qubit, "qubit effectively dead");
    (code_calib_coupler, "coupling map and link calibration disagree");
    (code_calib_stuck_sensor, "calibration figure frozen across days");
    (code_queue_full, "admission queue full; request rejected");
    (code_server_full, "server at client capacity; connection rejected");
    (code_determinism, "determinism-breaking call in source");
    (code_stdout_hygiene, "stdout print in library code");
    (code_unguarded_state, "top-level mutable state neither Atomic nor guarded");
    (code_lock_shape, "Mutex.lock without matching unlock/protect shape");
    (code_lock_order, "nested lock acquisition outside the canonical order");
    (code_descriptor_owner, "two channels over one descriptor both closed");
  ]

let describe code =
  match List.assoc_opt code all_codes with
  | Some description -> description
  | None -> "unknown diagnostic code"

let make ?(location = Nowhere) severity code message =
  { code; severity; message; location }

let error ?location code message = make ?location Error code message
let warning ?location code message = make ?location Warning code message
let info ?location code message = make ?location Info code message

let errorf ?location code fmt = Printf.ksprintf (error ?location code) fmt
let warningf ?location code fmt = Printf.ksprintf (warning ?location code) fmt
let infof ?location code fmt = Printf.ksprintf (info ?location code) fmt

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

(* Files first (alphabetically), then in-text lines, then gate indices,
   then location-free diagnostics; ties break on code then message. *)
let location_rank = function
  | File_line _ -> 0
  | Line _ -> 1
  | Gate _ -> 2
  | Nowhere -> 3

let compare_location a b =
  match (a, b) with
  | File_line x, File_line y ->
    let c = String.compare x.file y.file in
    if c <> 0 then c else Int.compare x.line y.line
  | Line x, Line y -> Int.compare x y
  | Gate x, Gate y -> Int.compare x y
  | Nowhere, Nowhere -> 0
  | _ -> Int.compare (location_rank a) (location_rank b)

let compare a b =
  let c = compare_location a.location b.location in
  if c <> 0 then c
  else begin
    let c = String.compare a.code b.code in
    if c <> 0 then c else String.compare a.message b.message
  end

let location_fields = function
  | Nowhere -> []
  | Line line -> [ ("line", Json.Int line) ]
  | Gate index -> [ ("gate", Json.Int index) ]
  | File_line { file; line } ->
    [ ("file", Json.String file); ("line", Json.Int line) ]

let to_json d =
  Json.Obj
    ([
       ("code", Json.String d.code);
       ("severity", Json.String (severity_to_string d.severity));
       ("message", Json.String d.message);
     ]
    @ location_fields d.location)

let location_to_string = function
  | Nowhere -> ""
  | Line line -> Printf.sprintf " line %d:" line
  | Gate index -> Printf.sprintf " gate %d:" index
  | File_line { file; line } -> Printf.sprintf " %s:%d:" file line

let to_string d =
  Printf.sprintf "%s[%s]%s %s"
    (severity_to_string d.severity)
    d.code
    (location_to_string d.location)
    d.message

let render_list ds =
  match List.sort compare ds with
  | [] -> "[]"
  | sorted ->
    let lines = List.map (fun d -> Json.to_string (to_json d)) sorted in
    "[\n" ^ String.concat ",\n" lines ^ "\n]"

let pp ppf d = Format.pp_print_string ppf (to_string d)

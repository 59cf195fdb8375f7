(* Tests for the static-analysis layer: structured diagnostics, the QASM
   /circuit linter, the repository self-lint, and the plan verifier —
   including the acceptance property (every plan the in-tree compiler
   produces is proven faithful) and mutation coverage (each seeded
   corruption is caught with its specific diagnostic code). *)

module Gate = Vqc_circuit.Gate
module Circuit = Vqc_circuit.Circuit
module Qasm = Vqc_circuit.Qasm
module Calibration = Vqc_device.Calibration
module Calibration_model = Vqc_device.Calibration_model
module Device = Vqc_device.Device
module Topologies = Vqc_device.Topologies
module Layout = Vqc_mapper.Layout
module Router = Vqc_mapper.Router
module Compiler = Vqc_mapper.Compiler
module Catalog = Vqc_workloads.Catalog
module Metrics = Vqc_obs.Metrics
module Diagnostic = Vqc_diag.Diagnostic
module Lint = Vqc_check.Lint
module Verify = Vqc_check.Verify
module Selflint = Vqc_check.Selflint
module Tokens = Vqc_check.Tokens
module Rules = Vqc_check.Rules
module Calib_lint = Vqc_check.Calib_lint
module Sarif = Vqc_check.Sarif
module Baseline = Vqc_check.Baseline
module History = Vqc_device.History
module Epoch = Vqc_service.Epoch
module Protocol = Vqc_service.Protocol
module Json = Vqc_obs.Json
module Json_io = Vqc_service.Json_io
module Service = Vqc_service.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let cx c t = Gate.Cnot { control = c; target = t }
let h q = Gate.One_qubit (Gate.H, q)
let meas q = Gate.Measure { qubit = q; cbit = q }
let q20 () = Calibration_model.ibm_q20 ~seed:2

let codes diagnostics = List.map (fun d -> d.Diagnostic.code) diagnostics

let has_code code diagnostics =
  Alcotest.(check bool)
    (code ^ " reported") true
    (List.mem code (codes diagnostics))

let only_code code diagnostics =
  Alcotest.(check (list string)) ("exactly " ^ code) [ code ] (codes diagnostics)

(* ---- Diagnostic ----------------------------------------------------- *)

let test_diagnostic_render_deterministic () =
  let d1 =
    Diagnostic.error ~location:(Diagnostic.Line 3) Diagnostic.code_index_range
      "index out of range"
  in
  let d2 =
    Diagnostic.warning ~location:(Diagnostic.Line 1)
      Diagnostic.code_unused_qubit "unused"
  in
  (* render_list sorts, so both input orders print identically *)
  check_string "order independent"
    (Diagnostic.render_list [ d1; d2 ])
    (Diagnostic.render_list [ d2; d1 ]);
  check_string "empty list" "[]" (Diagnostic.render_list []);
  check "line 1 sorts first" true
    (Diagnostic.compare d2 d1 < 0)

let test_diagnostic_to_json_locations () =
  let json d = Vqc_obs.Json.to_string (Diagnostic.to_json d) in
  check "line location" true
    (json (Diagnostic.error ~location:(Diagnostic.Line 7) "VQC000" "m")
    = {|{"code":"VQC000","severity":"error","message":"m","line":7}|});
  check "gate location" true
    (json (Diagnostic.info ~location:(Diagnostic.Gate 2) "VQC005" "m")
    = {|{"code":"VQC005","severity":"info","message":"m","gate":2}|});
  check "nowhere has no location fields" true
    (json (Diagnostic.warning "VQC003" "m")
    = {|{"code":"VQC003","severity":"warning","message":"m"}|})

let test_diagnostic_code_table () =
  (* every stable code documents itself, new families included *)
  List.iter
    (fun code ->
      check (code ^ " described") true
        (Diagnostic.describe code <> "unknown diagnostic code"))
    (List.map fst Diagnostic.all_codes);
  List.iter
    (fun code -> check (code ^ " registered") true (List.mem_assoc code Diagnostic.all_codes))
    [
      Diagnostic.code_calib_error_range;
      Diagnostic.code_calib_coherence;
      Diagnostic.code_calib_t2_bound;
      Diagnostic.code_calib_dead_qubit;
      Diagnostic.code_calib_coupler;
      Diagnostic.code_calib_stuck_sensor;
      Diagnostic.code_determinism;
      Diagnostic.code_stdout_hygiene;
      Diagnostic.code_unguarded_state;
      Diagnostic.code_lock_shape;
      Diagnostic.code_lock_order;
    ];
  check_string "unknown code" "unknown diagnostic code"
    (Diagnostic.describe "VQC999")

(* ---- Qasm positioned diagnostics ------------------------------------ *)

let test_qasm_diag_index_range () =
  let text =
    "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nx q[5];\n"
  in
  match Qasm.of_string_diag text with
  | Ok _ -> Alcotest.fail "out-of-range index accepted"
  | Error d ->
    check_string "code" Diagnostic.code_index_range d.Diagnostic.code;
    check "positioned at line 5" true (d.Diagnostic.location = Diagnostic.Line 5);
    (* the plain-string API renders the same position *)
    (match Qasm.of_string text with
    | Ok _ -> Alcotest.fail "of_string accepted"
    | Error message ->
      check "message carries line" true
        (String.length message >= 7 && String.sub message 0 7 = "line 5:"))

let test_qasm_diag_identical_operands () =
  let text = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\ncx q[1], q[1];\n" in
  match Qasm.of_string_diag text with
  | Ok _ -> Alcotest.fail "identical operands accepted"
  | Error d ->
    check_string "code" Diagnostic.code_identical_operands d.Diagnostic.code;
    check "positioned" true (d.Diagnostic.location = Diagnostic.Line 4)

let test_qasm_diag_parse_error () =
  match Qasm.of_string_diag "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];\n" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error d -> check_string "code" Diagnostic.code_parse d.Diagnostic.code

(* ---- Lint ----------------------------------------------------------- *)

let lint_text = Lint.qasm

let test_lint_clean_circuit () =
  let text =
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0], q[1];\n\
     measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
  in
  check "no diagnostics" true (lint_text text = [])

let test_lint_gate_after_measure () =
  let text =
    "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nmeasure q[0] -> c[0];\nx q[0];\n\
     x q[0];\nmeasure q[1] -> c[1];\n"
  in
  let diagnostics = lint_text text in
  has_code Diagnostic.code_gate_after_measure diagnostics;
  (* flagged once per qubit, at the first offending gate *)
  check_int "one report" 1
    (List.length
       (List.filter
          (fun d -> d.Diagnostic.code = Diagnostic.code_gate_after_measure)
          diagnostics))

let test_lint_unused_qubit () =
  let text = "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\nh q[2];\n" in
  let unused =
    List.filter
      (fun d -> d.Diagnostic.code = Diagnostic.code_unused_qubit)
      (lint_text text)
  in
  check_int "exactly qubit 1" 1 (List.length unused);
  check "warning severity" true
    (List.for_all (fun d -> d.Diagnostic.severity = Diagnostic.Warning) unused)

let test_lint_cancellable_pairs () =
  let circuit gates n = Lint.circuit (Circuit.of_gates n gates) in
  let cancels gates n =
    List.exists
      (fun d -> d.Diagnostic.code = Diagnostic.code_cancellable_pair)
      (circuit gates n)
  in
  check "h h cancels" true (cancels [ h 0; h 0; meas 0 ] 1);
  check "s sdg cancels" true
    (cancels
       [ Gate.One_qubit (Gate.S, 0); Gate.One_qubit (Gate.Sdg, 0); meas 0 ]
       1);
  check "repeated cx cancels" true
    (cancels [ cx 0 1; cx 0 1; meas 0; meas 1 ] 2);
  check "swap either orientation" true
    (cancels [ Gate.Swap (0, 1); Gate.Swap (1, 0); meas 0; meas 1 ] 2);
  check "h x h does not" false (cancels [ h 0; Gate.One_qubit (Gate.X, 0); h 0; meas 0 ] 1);
  check "interposed gate on operand blocks" false
    (cancels [ cx 0 1; h 1; cx 0 1; meas 0; meas 1 ] 2);
  check "barrier fences" false
    (cancels [ h 0; Gate.Barrier [ 0 ]; h 0; meas 0 ] 1)

(* ---- Selflint ------------------------------------------------------- *)

(* assembled so the self-lint does not flag this test file *)
let bad_rng = "let () = " ^ "Random." ^ "self_init" ^ " ()\n"
let bad_clock = "let now = " ^ "Unix." ^ "gettimeofday" ^ " ()\n"

let test_selflint_flags_rng () =
  let diagnostics = Rules.scan_source ~file:"lib/foo/bar.ml" bad_rng in
  check_int "one finding" 1 (List.length diagnostics);
  has_code Diagnostic.code_determinism diagnostics

let test_selflint_wall_clock_allow_list () =
  let text = "(* prelude *)\n" ^ bad_clock in
  check "flagged outside allow list" true
    (Rules.scan_source ~file:"lib/mapper/router.ml" text <> []);
  (match Rules.scan_source ~file:"lib/mapper/router.ml" text with
  | [ d ] ->
    check "line 2" true
      (d.Diagnostic.location
      = Diagnostic.File_line { file = "lib/mapper/router.ml"; line = 2 })
  | _ -> Alcotest.fail "expected exactly one finding");
  List.iter
    (fun file ->
      check (file ^ " allowed") true (Rules.scan_source ~file bad_clock = []))
    Rules.allowed_wall_clock

let test_selflint_repo_is_clean () =
  (* the committed tree must pass its own hygiene bar; run from the
     build sandbox we can only reach the real tree via the project root
     recorded by dune *)
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | None -> ()
  | Some root -> check "repository clean" true (Selflint.scan_tree ~root = [])

(* ---- Tokens --------------------------------------------------------- *)

(* The fixtures below spell banned call names out in plain string
   literals: the tokenizer skips string contents, so the repository
   self-lint of this very file is itself a regression test for the
   comment/string immunity they assert. *)

let ident_texts text =
  List.filter_map
    (fun (t : Tokens.token) ->
      if t.Tokens.kind = Tokens.Ident then Some t.Tokens.text else None)
    (Tokens.scan text)

let test_tokens_comment_string_immunity () =
  let text =
    "(* Random.self_init, (* nested Unix.gettimeofday *) Sys.time,\n"
    ^ {|   and a string "with a closer *) and Sys.time" skipped whole *)|}
    ^ "\n"
    ^ {|let banned = "Sys.time and print_endline and Mutex.lock"|}
    ^ "\nlet quoted = {x|Random.self_init|x}\n"
    ^ "let tricky = \"escaped quote \\\" then Unix.gettimeofday\"\n"
  in
  check "comments and strings never flag" true
    (Rules.scan_source ~file:"lib/foo/a.ml" text = []);
  (* the same names in code do flag *)
  only_code Diagnostic.code_determinism
    (Rules.scan_source ~file:"lib/foo/a.ml" "let cpu = Sys.time ()\n")

let test_tokens_dotted_and_char () =
  check "dotted path is one token" true
    (List.mem "Unix.gettimeofday" (ident_texts "let now = Unix.gettimeofday ()"));
  let tokens = Tokens.scan "let f (x : 'a) = 'b'" in
  check "char literal lexed" true
    (List.exists
       (fun (t : Tokens.token) ->
         t.Tokens.kind = Tokens.Char && t.Tokens.text = "'b'")
       tokens);
  check "type variable is not a char" false
    (List.exists
       (fun (t : Tokens.token) ->
         t.Tokens.kind = Tokens.Char && t.Tokens.text = "'a")
       tokens)

let test_line_index_binary_search () =
  let text = "a\nbc\n\nquux\n" in
  let index = Tokens.line_index text in
  Alcotest.(check (array int)) "line offsets" [| 0; 2; 5; 6; 11 |] index;
  (* the binary search agrees with the naive prefix rescan it replaced *)
  String.iteri
    (fun position _ ->
      let naive = ref 1 in
      String.iteri (fun i c -> if i < position && c = '\n' then incr naive) text;
      check_int
        (Printf.sprintf "line of byte %d" position)
        !naive
        (Tokens.line_of index position))
    text

(* ---- Rules: source analysis ----------------------------------------- *)

let scan file text = Rules.scan_source ~file text

let test_rule_stdout_hygiene () =
  let print = {|let () = print_endline "hi"|} ^ "\n" in
  only_code Diagnostic.code_stdout_hygiene (scan "lib/foo/a.ml" print);
  check "cli layer may print" true (scan "bin/main.ml" print = []);
  check "formatter-parameterized output is fine" true
    (scan "lib/foo/a.ml" {|let pp f = Format.fprintf f "x"|} = [])

let test_rule_unguarded_state () =
  let table = "let table = Hashtbl.create 16\n" in
  only_code Diagnostic.code_unguarded_state (scan "lib/foo/a.ml" table);
  only_code Diagnostic.code_unguarded_state
    (scan "lib/foo/a.ml" "let hits = ref 0\n");
  check "Atomic is the sanctioned form" true
    (scan "lib/foo/a.ml" "let hits = Atomic.make 0\n" = []);
  check "registration comment above" true
    (scan "lib/foo/a.ml" ("(* guarded by pool_lock *)\n" ^ table) = []);
  check "registration comment on the line" true
    (scan "lib/foo/a.ml" "let hits = ref 0 (* domain-safe: DLS *)\n" = []);
  check "local bindings are not globals" true
    (scan "lib/foo/a.ml" "let f () =\n  let hits = ref 0 in\n  !hits\n" = []);
  check "scoped to library code" true (scan "test/a.ml" table = [])

let test_rule_lock_shape () =
  let leaky = "let f m = Mutex.lock m; work ()\n" in
  (match scan "lib/foo/a.ml" leaky with
  | [ d ] ->
    check_string "code" Diagnostic.code_lock_shape d.Diagnostic.code;
    check "at the first lock" true
      (d.Diagnostic.location
      = Diagnostic.File_line { file = "lib/foo/a.ml"; line = 1 })
  | _ -> Alcotest.fail "expected exactly one finding");
  check "balanced lock/unlock" true
    (scan "lib/foo/a.ml" "let f m = Mutex.lock m; work (); Mutex.unlock m\n"
    = []);
  check "Mutex.protect counts as a release" true
    (scan "lib/foo/a.ml"
       "let f m = Mutex.lock m; work (); Mutex.unlock m\nlet g m h = Mutex.protect m h\n"
    = [])

let test_rule_lock_order () =
  let nested name_a name_b =
    Printf.sprintf
      "let f %s %s =\n  Mutex.lock %s;\n  Mutex.lock %s;\n  Mutex.unlock %s;\n  Mutex.unlock %s\n"
      name_a name_b name_a name_b name_b name_a
  in
  only_code Diagnostic.code_lock_order (scan "lib/foo/a.ml" (nested "a" "b"));
  check "canonical order nests freely" true
    (scan "lib/foo/a.ml" (nested "registry_lock" "hlock") = []);
  only_code Diagnostic.code_lock_order
    (scan "lib/foo/a.ml" (nested "hlock" "registry_lock"))

(* The session close before the one-owner fix: both channels of the
   accepted socket were closed, so the fd number was closed twice. *)
let double_close_session =
  {|let run_session t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (try close_out oc with Sys_error _ -> ());
      (try close_in ic with Sys_error _ -> ()))
    (fun () -> serve t ic oc)
|}

let test_rule_descriptor_owner () =
  (match scan "lib/foo/a.ml" double_close_session with
  | [ d ] ->
    check_string "code" Diagnostic.code_descriptor_owner d.Diagnostic.code;
    check "at the second close" true
      (d.Diagnostic.location
      = Diagnostic.File_line { file = "lib/foo/a.ml"; line = 7 })
  | _ -> Alcotest.fail "expected exactly one finding");
  check "one owning channel" true
    (scan "lib/foo/a.ml"
       {|let f fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  close_out_noerr oc
|}
    = []);
  check "channels of distinct descriptors" true
    (scan "lib/foo/a.ml"
       {|let f a b =
  let ic = Unix.in_channel_of_descr a in
  let oc = Unix.out_channel_of_descr b in
  close_in ic;
  close_out oc
|}
    = []);
  check "scoped to one top-level item" true
    (scan "lib/foo/a.ml"
       {|let f fd =
  let ic = Unix.in_channel_of_descr fd in
  close_in ic

let g fd =
  let oc = Unix.out_channel_of_descr fd in
  close_out oc
|}
    = []);
  let server =
    In_channel.with_open_text "../lib/serve_net/server.ml" In_channel.input_all
  in
  check "the session server closes each descriptor once" true
    (List.for_all
       (fun d -> d.Diagnostic.code <> Diagnostic.code_descriptor_owner)
       (scan "lib/serve_net/server.ml" server))

(* ---- Calib_lint ------------------------------------------------------ *)

let tenerife = Topologies.ibm_q5_tenerife

let healthy_q5 () =
  let calibration = Calibration.create 5 in
  List.iter
    (fun (u, v) -> Calibration.set_link_error calibration u v 0.05)
    tenerife;
  calibration

let calib_codes calibration =
  codes (Calib_lint.profile ~name:"t" ~coupling:tenerife calibration)

let tweak_qubit calibration q f =
  Calibration.set_qubit calibration q (f (Calibration.qubit calibration q))

let test_calib_clean_profile () =
  check "healthy profile is clean" true (calib_codes (healthy_q5 ()) = [])

let test_calib_error_range () =
  let c = healthy_q5 () in
  tweak_qubit c 0 (fun f -> { f with Calibration.error_readout = Float.nan });
  Alcotest.(check (list string))
    "NaN readout" [ Diagnostic.code_calib_error_range ] (calib_codes c);
  let c = healthy_q5 () in
  tweak_qubit c 1 (fun f -> { f with Calibration.error_1q = -0.1 });
  Alcotest.(check (list string))
    "negative rate" [ Diagnostic.code_calib_error_range ] (calib_codes c)

let test_calib_coherence () =
  let c = healthy_q5 () in
  tweak_qubit c 0 (fun f -> { f with Calibration.t1_us = 30_000.0 });
  Alcotest.(check (list string))
    "absurd T1" [ Diagnostic.code_calib_coherence ] (calib_codes c);
  let c = healthy_q5 () in
  tweak_qubit c 2 (fun f -> { f with Calibration.t2_us = 0.0 });
  Alcotest.(check (list string))
    "zero T2" [ Diagnostic.code_calib_coherence ] (calib_codes c)

let test_calib_t2_bound () =
  let c = healthy_q5 () in
  tweak_qubit c 1 (fun f -> { f with Calibration.t1_us = 40.0; t2_us = 95.0 });
  Alcotest.(check (list string))
    "T2 > 2*T1" [ Diagnostic.code_calib_t2_bound ] (calib_codes c)

let test_calib_dead_qubit () =
  let c = healthy_q5 () in
  tweak_qubit c 3 (fun f -> { f with Calibration.error_1q = 0.6 });
  Alcotest.(check (list string))
    "hot qubit" [ Diagnostic.code_calib_dead_qubit ] (calib_codes c);
  (* both endpoints of an all-dead neighbourhood are dead *)
  let pair = Calibration.create 2 in
  Calibration.set_link_error pair 0 1 0.9;
  Alcotest.(check (list string))
    "no live incident coupler"
    [ Diagnostic.code_calib_dead_qubit; Diagnostic.code_calib_dead_qubit ]
    (codes (Calib_lint.profile ~name:"t" ~coupling:[ (0, 1) ] pair))

let test_calib_coupler_asymmetry () =
  let c = healthy_q5 () in
  Calibration.set_link_error c 1 3 0.05;
  Alcotest.(check (list string))
    "calibrated non-coupler" [ Diagnostic.code_calib_coupler ] (calib_codes c);
  let c = Calibration.create 5 in
  List.iter
    (fun (u, v) ->
      if (u, v) <> (3, 4) then Calibration.set_link_error c u v 0.05)
    tenerife;
  Alcotest.(check (list string))
    "uncalibrated coupler" [ Diagnostic.code_calib_coupler ] (calib_codes c)

let test_calib_stuck_sensor () =
  (* a core error far above the generator's clamp rail pins the link's
     base at the rail; at this seed the AR(1) deviation stays positive
     across the horizon, so every day clamps to the same value: frozen,
     hence stuck — the same mechanism behind the baselined findings *)
  let params =
    {
      Calibration_model.ibm_q20_params with
      Calibration_model.error_2q =
        {
          Calibration_model.core_mean = 1.0;
          core_std = 0.0;
          bad_fraction = 0.0;
          bad_lo = 0.1;
          bad_hi = 0.18;
        };
    }
  in
  let history =
    History.generate ~days:6 ~params ~seed:8 ~coupling:[ (0, 1) ] 2
  in
  Alcotest.(check (list string))
    "frozen link" [ Diagnostic.code_calib_stuck_sensor ]
    (codes (Calib_lint.history ~name:"t" history))

let test_calib_full_sweep_is_baselined () =
  (* the exact sweep `vqc-check calib` runs: every profile, the paper's
     52-day horizon, default seed — expected clean modulo the committed
     baseline (the generator's clamp rail legitimately freezes a few
     links, and those are accepted in check-baseline.txt) *)
  let findings =
    List.concat_map
      (fun (p : Calibration_model.profile) ->
        let history =
          History.generate ~days:52 ~params:p.Calibration_model.profile_params
            ~seed:2 ~coupling:p.Calibration_model.coupling
            p.Calibration_model.qubits
        in
        Calib_lint.history ~name:p.Calibration_model.profile_name history)
      Calibration_model.profiles
  in
  check "only stuck-sensor findings" true
    (List.for_all
       (fun d -> d.Diagnostic.code = Diagnostic.code_calib_stuck_sensor)
       findings);
  check_int "pinned count" 17 (List.length findings);
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | None -> ()
  | Some root ->
    (match Baseline.load (Filename.concat root "check-baseline.txt") with
    | Error message -> Alcotest.fail message
    | Ok baseline ->
      check "every finding is baselined" true
        (Baseline.filter_new baseline findings = []))

(* ---- Sarif ----------------------------------------------------------- *)

let parse_json text =
  match Json_io.parse text with
  | Ok json -> json
  | Error reason -> Alcotest.failf "invalid JSON (%s)" reason

let json_member name json =
  match Json_io.member name json with
  | Some value -> value
  | None -> Alcotest.fail ("missing member " ^ name)

let json_string json =
  match Json_io.string_value json with
  | Some s -> s
  | None -> Alcotest.fail "not a string"

let json_list = function
  | Json.List l -> l
  | _ -> Alcotest.fail "not a list"

let sarif_fixture_findings () =
  [
    Diagnostic.error
      ~location:(Diagnostic.File_line { file = "lib/a.ml"; line = 3 })
      Diagnostic.code_determinism "wall clock";
    Diagnostic.info Diagnostic.code_calib_stuck_sensor "note-level finding";
    Diagnostic.warning Diagnostic.code_unused_qubit "w";
  ]

let test_sarif_structure () =
  let sarif = parse_json (Sarif.render (sarif_fixture_findings ())) in
  check_string "$schema" Sarif.schema (json_string (json_member "$schema" sarif));
  check_string "version" "2.1.0" (json_string (json_member "version" sarif));
  let run = List.hd (json_list (json_member "runs" sarif)) in
  let driver = json_member "driver" (json_member "tool" run) in
  check_string "tool name" "vqc-check" (json_string (json_member "name" driver));
  check_int "one rule per distinct code" 3
    (List.length (json_list (json_member "rules" driver)));
  let results = json_list (json_member "results" run) in
  let levels =
    List.sort compare
      (List.map (fun r -> json_string (json_member "level" r)) results)
  in
  Alcotest.(check (list string))
    "severity mapping (Info -> note)"
    [ "error"; "note"; "warning" ] levels;
  let located =
    List.filter_map
      (fun r ->
        match r with
        | Json.Obj fields when List.mem_assoc "locations" fields ->
          Some (List.hd (json_list (List.assoc "locations" fields)))
        | _ -> None)
      results
  in
  match located with
  | [ location ] ->
    let physical = json_member "physicalLocation" location in
    check_string "uri" "lib/a.ml"
      (json_string (json_member "uri" (json_member "artifactLocation" physical)));
    check "startLine" true
      (json_member "startLine" (json_member "region" physical) = Json.Int 3)
  | _ -> Alcotest.fail "expected exactly one located result"

(* A deliberately small JSON-Schema evaluator — just the keywords the
   checked-in SARIF subset schema uses: type, required, properties,
   items, const, enum. *)
let rec validate_schema ~path schema json =
  let fail message = Alcotest.fail (Printf.sprintf "%s: %s" path message) in
  match schema with
  | Json.Obj fields ->
    let field name = List.assoc_opt name fields in
    (match field "const" with
    | Some c when c <> json -> fail "const mismatch"
    | _ -> ());
    (match field "enum" with
    | Some (Json.List choices) when not (List.mem json choices) ->
      fail "enum mismatch"
    | _ -> ());
    (match (field "type", json) with
    | Some (Json.String "object"), Json.Obj _
    | Some (Json.String "array"), Json.List _
    | Some (Json.String "string"), Json.String _
    | Some (Json.String "integer"), Json.Int _ ->
      ()
    | Some (Json.String expected), _ -> fail ("not a " ^ expected)
    | _ -> ());
    (match (field "required", json) with
    | Some (Json.List names), Json.Obj members ->
      List.iter
        (function
          | Json.String name ->
            if not (List.mem_assoc name members) then
              fail ("missing required member " ^ name)
          | _ -> ())
        names
    | _ -> ());
    (match (field "properties", json) with
    | Some (Json.Obj properties), Json.Obj members ->
      List.iter
        (fun (name, value) ->
          match List.assoc_opt name properties with
          | Some subschema ->
            validate_schema ~path:(path ^ "." ^ name) subschema value
          | None -> ())
        members
    | _ -> ());
    (match (field "items", json) with
    | Some subschema, Json.List elements ->
      List.iteri
        (fun i element ->
          validate_schema ~path:(Printf.sprintf "%s[%d]" path i) subschema
            element)
        elements
    | _ -> ())
  | _ -> fail "schema node is not an object"

let test_sarif_validates_against_schema () =
  (* cwd is the test directory under `dune runtest`, the project root
     under a bare `dune exec` *)
  let fixture =
    List.find Sys.file_exists
      [ "fixtures/sarif-schema.json"; "test/fixtures/sarif-schema.json" ]
  in
  let schema =
    parse_json (In_channel.with_open_text fixture In_channel.input_all)
  in
  let validate findings =
    validate_schema ~path:"$" schema (parse_json (Sarif.render findings))
  in
  validate (sarif_fixture_findings ());
  validate [];
  validate (Calib_lint.profile ~name:"t" ~coupling:[ (0, 1) ] (Calibration.create 2))

(* ---- Baseline -------------------------------------------------------- *)

let test_baseline_round_trip () =
  let located =
    Diagnostic.error
      ~location:(Diagnostic.File_line { file = "lib/a.ml"; line = 3 })
      Diagnostic.code_determinism "m1"
  in
  let nowhere = Diagnostic.error Diagnostic.code_calib_stuck_sensor "m2" in
  check_string "location-free fingerprint" "VQC125\t-\tm2"
    (Baseline.fingerprint nowhere);
  let baseline = Baseline.of_string (Baseline.render [ located; nowhere ]) in
  check "render round-trips" true
    (Baseline.filter_new baseline [ located; nowhere ] = []);
  (* fingerprints exclude the line, so moved findings stay accepted *)
  let moved =
    Diagnostic.error
      ~location:(Diagnostic.File_line { file = "lib/a.ml"; line = 9 })
      Diagnostic.code_determinism "m1"
  in
  check "line-insensitive" true (Baseline.mem baseline moved);
  let fresh = Diagnostic.error Diagnostic.code_determinism "brand new" in
  (match Baseline.partition baseline [ located; fresh ] with
  | [ f ], [ s ] ->
    check_string "fresh survives" "brand new" f.Diagnostic.message;
    check_string "known suppressed" "m1" s.Diagnostic.message
  | _ -> Alcotest.fail "expected one fresh and one suppressed");
  check "comments and blanks ignored" true
    (Baseline.mem
       (Baseline.of_string "# header\n\nVQC201\tlib/a.ml\tm1\n")
       located);
  check "empty baseline accepts nothing" false (Baseline.mem Baseline.empty located)

let test_baseline_load_missing () =
  match Baseline.load "/nonexistent/vqc-baseline.txt" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing baseline must fail"

(* ---- scan_tree ------------------------------------------------------- *)

let test_scan_tree_layout () =
  let root = Filename.temp_file "vqc_selflint" "" in
  Sys.remove root;
  let mkdir path = Sys.mkdir path 0o755 in
  mkdir root;
  let lib = Filename.concat root "lib" in
  mkdir lib;
  mkdir (Filename.concat lib "_build");
  let write path text =
    Out_channel.with_open_text path (fun channel ->
        Out_channel.output_string channel text)
  in
  let flagged = Filename.concat lib "flagged.ml" in
  let skipped = Filename.concat (Filename.concat lib "_build") "skipped.ml" in
  let hidden = Filename.concat lib ".hidden.ml" in
  write flagged "let () = Random.self_init ()\n";
  write skipped "let () = Random.self_init ()\n";
  write hidden "let () = Random.self_init ()\n";
  Fun.protect
    ~finally:(fun () ->
      List.iter Sys.remove [ flagged; skipped; hidden ];
      List.iter Sys.rmdir [ Filename.concat lib "_build"; lib; root ])
    (fun () ->
      match Selflint.scan_tree ~root with
      | [ d ] ->
        check_string "code" Diagnostic.code_determinism d.Diagnostic.code;
        check "root-relative path" true
          (d.Diagnostic.location
          = Diagnostic.File_line { file = "lib/flagged.ml"; line = 1 })
      | diagnostics ->
        Alcotest.fail
          (Printf.sprintf "expected one finding, got %d"
             (List.length diagnostics)))

(* ---- Verify: acceptance --------------------------------------------- *)

let accept_policies =
  [
    Compiler.baseline;
    Compiler.vqm;
    Compiler.vqa_vqm;
    Compiler.vqm_bridge;
    Compiler.sabre;
    Compiler.noise_sabre;
  ]

let test_verifier_accepts_catalog () =
  let device = q20 () in
  List.iter
    (fun (entry : Catalog.entry) ->
      List.iter
        (fun policy ->
          let plan = Compiler.compile device policy entry.Catalog.circuit in
          let diagnostics = Verify.compiled device entry.Catalog.circuit plan in
          Alcotest.(check (list string))
            (entry.Catalog.name ^ "/" ^ policy.Compiler.label)
            [] (codes diagnostics))
        accept_policies)
    Catalog.all

let gen_program =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let gate =
      let* kind = int_bound 4 in
      let* q = int_bound (n - 1) in
      match kind with
      | 0 | 1 ->
        let* other = int_bound (n - 2) in
        let t = if other >= q then other + 1 else other in
        return (cx q t)
      | 2 -> return (h q)
      | 3 ->
        let* other = int_bound (n - 2) in
        let t = if other >= q then other + 1 else other in
        return (Gate.Swap (q, t))
      | _ -> return (meas q)
    in
    let* gates = list_size (int_bound 25) gate in
    return (Circuit.of_gates n gates))

let prop_verifier_accepts_random_plans =
  QCheck2.Test.make ~name:"verifier accepts every compiled plan" ~count:60
    gen_program (fun program ->
      let device = q20 () in
      List.for_all
        (fun policy ->
          let plan = Compiler.compile device policy program in
          Verify.compiled device program plan = [])
        [ Compiler.baseline; Compiler.vqa_vqm; Compiler.vqm_bridge;
          Compiler.sabre ])

(* ---- Verify: mutations ---------------------------------------------- *)

let compiled_subject device source (plan : Compiler.compiled) =
  {
    Verify.device;
    source;
    physical = plan.Compiler.physical;
    initial = plan.Compiler.initial;
    final = plan.Compiler.final;
    swaps_inserted = plan.Compiler.stats.Router.swaps_inserted;
  }

(* A plan guaranteed to contain inserted SWAPs: qft-12 is dense. *)
let swapful_plan device =
  let source = (Catalog.find "qft-12").Catalog.circuit in
  let plan = Compiler.compile device Compiler.vqm source in
  check "plan has inserted swaps" true
    (plan.Compiler.stats.Router.swaps_inserted > 0);
  (source, plan)

let with_physical subject gates =
  {
    subject with
    Verify.physical =
      Circuit.of_gates
        ~cbits:(Circuit.num_cbits subject.Verify.physical)
        (Circuit.num_qubits subject.Verify.physical)
        gates;
  }

let test_mutation_dropped_swap () =
  let device = q20 () in
  let source, plan = swapful_plan device in
  let subject = compiled_subject device source plan in
  (* qft-12 has no program SWAPs, so every physical SWAP was inserted *)
  let dropped = ref false in
  let gates =
    List.filter
      (fun gate ->
        match gate with
        | Gate.Swap _ when not !dropped ->
          dropped := true;
          false
        | _ -> true)
      (Circuit.gates plan.Compiler.physical)
  in
  check "a swap was dropped" true !dropped;
  (* the layouts diverge at the missing SWAP, so the first gate that
     relied on it fails to match any ready source gate *)
  let diagnostics = Verify.check (with_physical subject gates) in
  check "rejected" true (Diagnostic.has_errors diagnostics);
  has_code Diagnostic.code_replay_mismatch diagnostics

let test_mutation_swapped_cnot_operands () =
  let device = q20 () in
  let source, plan = swapful_plan device in
  let subject = compiled_subject device source plan in
  let flipped = ref false in
  let gates =
    List.map
      (fun gate ->
        match gate with
        | Gate.Cnot { control; target } when not !flipped ->
          flipped := true;
          Gate.Cnot { control = target; target = control }
        | gate -> gate)
      (Circuit.gates plan.Compiler.physical)
  in
  check "a cnot was flipped" true !flipped;
  let diagnostics = Verify.check (with_physical subject gates) in
  check "rejected" true (Diagnostic.has_errors diagnostics);
  has_code Diagnostic.code_replay_mismatch diagnostics

let test_mutation_remapped_measurement () =
  let device = q20 () in
  let source, plan = swapful_plan device in
  let subject = compiled_subject device source plan in
  let remapped = ref false in
  let gates =
    List.map
      (fun gate ->
        match gate with
        | Gate.Measure { qubit; cbit } when not !remapped ->
          remapped := true;
          Gate.Measure { qubit; cbit = (cbit + 1) mod 12 }
        | gate -> gate)
      (Circuit.gates plan.Compiler.physical)
  in
  check "a measurement was remapped" true !remapped;
  let diagnostics = Verify.check (with_physical subject gates) in
  check "rejected" true (Diagnostic.has_errors diagnostics);
  has_code Diagnostic.code_measurement_mapping diagnostics

let test_mutation_inflated_swap_count () =
  let device = q20 () in
  let source, plan = swapful_plan device in
  let subject = compiled_subject device source plan in
  let diagnostics =
    Verify.check
      { subject with Verify.swaps_inserted = subject.Verify.swaps_inserted + 1 }
  in
  Alcotest.(check (list string))
    "only the accounting is wrong"
    [ Diagnostic.code_swap_count ] (codes diagnostics)

let test_mutation_corrupted_final_layout () =
  let device = q20 () in
  let source, plan = swapful_plan device in
  let subject = compiled_subject device source plan in
  let assignment = Layout.assignment plan.Compiler.final in
  let tmp = assignment.(0) in
  assignment.(0) <- assignment.(1);
  assignment.(1) <- tmp;
  let corrupted =
    Layout.of_assignment ~physicals:(Device.num_qubits device) assignment
  in
  let diagnostics = Verify.check { subject with Verify.final = corrupted } in
  Alcotest.(check (list string))
    "final layout mismatch"
    [ Diagnostic.code_final_layout ] (codes diagnostics)

let test_mutation_truncated_physical () =
  let device = q20 () in
  let source, plan = swapful_plan device in
  let subject = compiled_subject device source plan in
  let gates = Circuit.gates plan.Compiler.physical in
  let truncated = List.filteri (fun i _ -> i < List.length gates - 1) gates in
  let diagnostics = Verify.check (with_physical subject truncated) in
  check "rejected" true (Diagnostic.has_errors diagnostics);
  has_code Diagnostic.code_unreplayed_gates diagnostics

let test_mutation_illegal_coupling () =
  let device = q20 () in
  (* a hand-built "plan" that routes cx 0,1 onto an uncoupled pair *)
  let far =
    match
      List.find_opt
        (fun q -> not (Device.connected device 0 q))
        (List.init (Device.num_qubits device - 1) (fun i -> i + 1))
    with
    | Some q -> q
    | None -> Alcotest.fail "Q20 is not a clique"
  in
  let source = Circuit.of_gates ~cbits:2 2 [ cx 0 1; meas 0; meas 1 ] in
  let layout =
    Layout.of_assignment ~physicals:(Device.num_qubits device) [| 0; far |]
  in
  let physical =
    Circuit.of_gates ~cbits:2 (Device.num_qubits device)
      [
        Gate.Cnot { control = 0; target = far };
        Gate.Measure { qubit = 0; cbit = 0 };
        Gate.Measure { qubit = far; cbit = 1 };
      ]
  in
  let diagnostics =
    Verify.check
      {
        Verify.device;
        source;
        physical;
        initial = layout;
        final = layout;
        swaps_inserted = 0;
      }
  in
  Alcotest.(check (list string))
    "illegal coupling"
    [ Diagnostic.code_illegal_coupling ] (codes diagnostics)

let test_mutation_corrupt_calibration () =
  let device = q20 () in
  let source = (Catalog.find "bv-16").Catalog.circuit in
  let plan = Compiler.compile device Compiler.baseline source in
  let calibration = Calibration.copy (Device.calibration device) in
  let qubit = Calibration.qubit calibration 0 in
  Calibration.set_qubit calibration 0
    { qubit with Calibration.error_1q = 1.5 };
  let corrupted = Device.with_calibration device calibration in
  let diagnostics =
    Verify.check (compiled_subject corrupted source plan)
  in
  check "rejected" true (Diagnostic.has_errors diagnostics);
  has_code Diagnostic.code_calibration diagnostics

let test_mutation_malformed_shape () =
  let device = q20 () in
  let source = Circuit.of_gates ~cbits:1 1 [ h 0; meas 0 ] in
  (* layout for 3 program qubits against a 1-qubit source *)
  let layout =
    Layout.of_assignment ~physicals:(Device.num_qubits device) [| 0; 1; 2 |]
  in
  let physical =
    Circuit.of_gates ~cbits:1 (Device.num_qubits device)
      [ h 0; Gate.Measure { qubit = 0; cbit = 0 } ]
  in
  let diagnostics =
    Verify.check
      {
        Verify.device;
        source;
        physical;
        initial = layout;
        final = layout;
        swaps_inserted = 0;
      }
  in
  check "rejected" true (Diagnostic.has_errors diagnostics);
  has_code Diagnostic.code_malformed_plan diagnostics

(* ---- compiler hook --------------------------------------------------- *)

let test_compiler_hook_verifies () =
  let device = q20 () in
  let source = (Catalog.find "bv-16").Catalog.circuit in
  Verify.install_compiler_check ();
  Fun.protect ~finally:Verify.uninstall_compiler_check (fun () ->
      let before = Metrics.counter_value (Metrics.counter "check.plans") in
      let plan = Compiler.compile device Compiler.vqm source in
      check "plan produced" true (Circuit.length plan.Compiler.physical > 0);
      let after = Metrics.counter_value (Metrics.counter "check.plans") in
      check "check counted" true (after > before))

(* ---- service integration --------------------------------------------- *)

let epochs () =
  let history =
    Vqc_device.History.generate ~days:2 ~seed:2
      ~coupling:Topologies.ibm_q20_tokyo 20
  in
  Epoch.of_history ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo history

let submit_ok service request =
  match Service.submit service request with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "submission rejected"

let request workload =
  {
    Protocol.id = None;
    source = Protocol.Workload workload;
    policy = "vqa+vqm";
    epoch = None;
    estimate = false;
  }

let test_service_verify_serves_and_rehits () =
  let config = { Service.default_config with Service.verify = true } in
  Service.with_service ~config (epochs ()) (fun service ->
      submit_ok service (request "bv-16");
      (match Service.flush service with
      | [ Protocol.Compiled { cache = Protocol.Miss; _ } ] -> ()
      | _ -> Alcotest.fail "expected one verified miss");
      let ok_before = Metrics.counter_value (Metrics.counter "service.verify.ok") in
      submit_ok service (request "bv-16");
      (match Service.flush service with
      | [ Protocol.Compiled { cache = Protocol.Hit; _ } ] -> ()
      | _ -> Alcotest.fail "expected one verified hit");
      let ok_after = Metrics.counter_value (Metrics.counter "service.verify.ok") in
      check "cache hit was re-verified" true (ok_after > ok_before))

let test_service_verify_matches_unverified_plans () =
  (* --verify must not change the deterministic fields of valid plans *)
  let run verify =
    let config = { Service.default_config with Service.verify } in
    Service.with_service ~config (epochs ()) (fun service ->
        submit_ok service (request "qft-12");
        submit_ok service (request "bv-16");
        List.map Protocol.render (Service.flush service))
  in
  let strip line =
    (* drop the "nd" tail: deterministic prefix ends at ,"nd": *)
    match String.index_opt line 'n' with
    | _ ->
      let marker = {|,"nd":|} in
      let rec find i =
        if i + String.length marker > String.length line then line
        else if String.sub line i (String.length marker) = marker then
          String.sub line 0 i
        else find (i + 1)
      in
      find 0
  in
  Alcotest.(check (list string))
    "identical deterministic fields"
    (List.map strip (run false))
    (List.map strip (run true))

let test_protocol_invalid_render () =
  let response =
    Protocol.Invalid
      {
        id = Some (Vqc_obs.Json.Int 9);
        diagnostics =
          [
            Diagnostic.error ~location:(Diagnostic.Gate 4)
              Diagnostic.code_replay_mismatch "physical gate matches nothing";
          ];
        cache = Protocol.Hit;
        seconds = 0.25;
      }
  in
  check_string "wire form"
    ({|{"id":9,"status":"invalid","diagnostics":[{"code":"VQC102",|}
    ^ {|"severity":"error","message":"physical gate matches nothing",|}
    ^ {|"gate":4}],"nd":{"cache":"hit","seconds":0.25}}|})
    (Protocol.render response)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vqc_check"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "deterministic rendering" `Quick
            test_diagnostic_render_deterministic;
          Alcotest.test_case "json locations" `Quick
            test_diagnostic_to_json_locations;
          Alcotest.test_case "code table" `Quick test_diagnostic_code_table;
        ] );
      ( "tokens",
        [
          Alcotest.test_case "comment/string immunity" `Quick
            test_tokens_comment_string_immunity;
          Alcotest.test_case "dotted paths and chars" `Quick
            test_tokens_dotted_and_char;
          Alcotest.test_case "line index" `Quick test_line_index_binary_search;
        ] );
      ( "rules",
        [
          Alcotest.test_case "stdout hygiene" `Quick test_rule_stdout_hygiene;
          Alcotest.test_case "unguarded state" `Quick test_rule_unguarded_state;
          Alcotest.test_case "lock shape" `Quick test_rule_lock_shape;
          Alcotest.test_case "lock order" `Quick test_rule_lock_order;
          Alcotest.test_case "descriptor owner" `Quick
            test_rule_descriptor_owner;
        ] );
      ( "calib",
        [
          Alcotest.test_case "clean profile" `Quick test_calib_clean_profile;
          Alcotest.test_case "error range" `Quick test_calib_error_range;
          Alcotest.test_case "coherence range" `Quick test_calib_coherence;
          Alcotest.test_case "t2 bound" `Quick test_calib_t2_bound;
          Alcotest.test_case "dead qubit" `Quick test_calib_dead_qubit;
          Alcotest.test_case "coupler asymmetry" `Quick
            test_calib_coupler_asymmetry;
          Alcotest.test_case "stuck sensor" `Quick test_calib_stuck_sensor;
          Alcotest.test_case "full sweep baselined" `Slow
            test_calib_full_sweep_is_baselined;
        ] );
      ( "sarif",
        [
          Alcotest.test_case "structure" `Quick test_sarif_structure;
          Alcotest.test_case "schema validation" `Quick
            test_sarif_validates_against_schema;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "round trip" `Quick test_baseline_round_trip;
          Alcotest.test_case "missing file" `Quick test_baseline_load_missing;
        ] );
      ( "qasm",
        [
          Alcotest.test_case "index range positioned" `Quick
            test_qasm_diag_index_range;
          Alcotest.test_case "identical operands" `Quick
            test_qasm_diag_identical_operands;
          Alcotest.test_case "parse error" `Quick test_qasm_diag_parse_error;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean circuit" `Quick test_lint_clean_circuit;
          Alcotest.test_case "gate after measure" `Quick
            test_lint_gate_after_measure;
          Alcotest.test_case "unused qubit" `Quick test_lint_unused_qubit;
          Alcotest.test_case "cancellable pairs" `Quick
            test_lint_cancellable_pairs;
        ] );
      ( "selflint",
        [
          Alcotest.test_case "flags rng" `Quick test_selflint_flags_rng;
          Alcotest.test_case "wall clock allow list" `Quick
            test_selflint_wall_clock_allow_list;
          Alcotest.test_case "repository clean" `Quick
            test_selflint_repo_is_clean;
          Alcotest.test_case "tree walk" `Quick test_scan_tree_layout;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts catalog plans" `Slow
            test_verifier_accepts_catalog;
        ]
        @ qcheck [ prop_verifier_accepts_random_plans ] );
      ( "mutations",
        [
          Alcotest.test_case "dropped swap" `Quick test_mutation_dropped_swap;
          Alcotest.test_case "swapped cnot operands" `Quick
            test_mutation_swapped_cnot_operands;
          Alcotest.test_case "remapped measurement" `Quick
            test_mutation_remapped_measurement;
          Alcotest.test_case "inflated swap count" `Quick
            test_mutation_inflated_swap_count;
          Alcotest.test_case "corrupted final layout" `Quick
            test_mutation_corrupted_final_layout;
          Alcotest.test_case "truncated physical" `Quick
            test_mutation_truncated_physical;
          Alcotest.test_case "illegal coupling" `Quick
            test_mutation_illegal_coupling;
          Alcotest.test_case "corrupt calibration" `Quick
            test_mutation_corrupt_calibration;
          Alcotest.test_case "malformed shape" `Quick
            test_mutation_malformed_shape;
        ] );
      ( "integration",
        [
          Alcotest.test_case "compiler hook" `Quick test_compiler_hook_verifies;
          Alcotest.test_case "service verify on" `Quick
            test_service_verify_serves_and_rehits;
          Alcotest.test_case "verify does not perturb plans" `Slow
            test_service_verify_matches_unverified_plans;
          Alcotest.test_case "invalid wire form" `Quick
            test_protocol_invalid_render;
        ] );
    ]

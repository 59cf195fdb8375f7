(* Tests for the compilation service: fingerprints, the LRU plan cache,
   admission control, epoch rotation, the NDJSON protocol, and the
   end-to-end determinism contract (responses byte-identical modulo
   "nd" across worker counts and cache on/off). *)

module Circuit = Vqc_circuit.Circuit
module Qasm = Vqc_circuit.Qasm
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Catalog = Vqc_workloads.Catalog
module Metrics = Vqc_obs.Metrics
module Json = Vqc_obs.Json
module Json_io = Vqc_service.Json_io
module Fingerprint = Vqc_service.Fingerprint
module Policies = Vqc_service.Policies
module Plan_cache = Vqc_service.Plan_cache
module Epoch = Vqc_service.Epoch
module Admission = Vqc_service.Admission
module Protocol = Vqc_service.Protocol
module Service = Vqc_service.Service

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec at i =
    i + ln <= lh && (String.sub haystack i ln = needle || at (i + 1))
  in
  ln > 0 && at 0

let counter name =
  Metrics.counter_value (Metrics.counter name)

(* ---- Json_io ------------------------------------------------------- *)

let test_json_parse_values () =
  let ok text = Result.get_ok (Json_io.parse text) in
  check "null" true (ok "null" = Json.Null);
  check "bool" true (ok "true" = Json.Bool true);
  check "int" true (ok "42" = Json.Int 42);
  check "negative int" true (ok "-7" = Json.Int (-7));
  check "float" true (ok "2.5" = Json.Float 2.5);
  check "exponent is float" true (ok "1e3" = Json.Float 1000.0);
  check "string" true (ok {|"hi"|} = Json.String "hi");
  check "escapes" true (ok {|"a\nb\"c"|} = Json.String "a\nb\"c");
  check "unicode escape" true (ok {|"A"|} = Json.String "A");
  check "int beyond int range is float" true
    (ok "4611686018427387904" = Json.Float 4611686018427387904.0);
  check "negative zero" true (ok "-0.0" = Json.Float (-0.0));
  check "nested" true
    (ok {|{"a":[1,{"b":null}],"c":""}|}
    = Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
          ("c", Json.String "");
        ])

let test_json_parse_errors () =
  let bad text = Result.is_error (Json_io.parse text) in
  check "empty" true (bad "");
  check "trailing garbage" true (bad "1 2");
  check "unterminated" true (bad {|"abc|});
  check "bare key" true (bad "{a:1}");
  check "trailing comma" true (bad "[1,]");
  check "lone surrogate" true (bad {|"\ud800"|});
  (* numbers outside the RFC 8259 grammar *)
  List.iter
    (fun number -> check ("number " ^ number) true (bad number))
    [ "+1"; "01"; "00"; "-01"; ".5"; "-.5"; "1."; "1.e5"; "-"; "1e"; "1e+" ];
  check "id +1 refused" true (bad {|{"workload":"bv-3","id":+1}|});
  check_string "error names the byte offset" "bad number at 3"
    (Result.get_error (Json_io.parse "[1.]"))

(* Whatever the obs emitter writes, the service parser reads back, bit
   for bit: floats compare by IEEE-754 bits so -0. and subnormals count. *)
let rec same_json a b =
  match (a, b) with
  | Json.Float x, Json.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal same_json xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k, x) (l, y) -> k = l && same_json x y) xs ys
  | _ -> a = b

let gen_json =
  let open QCheck2.Gen in
  let gen_string =
    (* quotes, backslashes, every control byte and raw UTF-8 bytes *)
    string_size
      ~gen:(oneof [ char; oneofl [ '"'; '\\' ]; char_range '\000' '\031' ])
      (int_range 0 12)
  in
  let gen_float =
    oneof
      [
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 0.5)
          int64;
        oneofl
          [
            -0.0;
            1e300;
            -1e300;
            5e-324;
            2.2250738585072009e-308;
            2. ** 53.;
            1e16;
            0.1;
          ];
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map
          (fun i -> Json.Int i)
          (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
        map (fun f -> Json.Float f) gen_float;
        map (fun s -> Json.String s) gen_string;
      ]
  in
  sized
  @@ fix (fun self size ->
         if size <= 1 then leaf
         else
           let child = self (size / 4) in
           frequency
             [
               (1, leaf);
               ( 1,
                 map
                   (fun items -> Json.List items)
                   (list_size (int_range 0 4) child) );
               ( 1,
                 map
                   (fun fields -> Json.Obj fields)
                   (list_size (int_range 0 4) (pair gen_string child)) );
             ])

let prop_json_roundtrips_emitter =
  QCheck2.Test.make ~name:"emitter roundtrip" ~count:500 ~print:Json.to_string
    gen_json (fun value ->
      match Json_io.parse (Json.to_string value) with
      | Ok parsed -> same_json parsed value
      | Error _ -> false)

(* ---- Fingerprint --------------------------------------------------- *)

let test_fingerprint_known_value () =
  (* FNV-1a 64 test vectors (empty string = offset basis) *)
  check_string "empty" "cbf29ce484222325" (Fingerprint.of_string "");
  check_string "a" "af63dc4c8601ec8c" (Fingerprint.of_string "a")

let test_fingerprint_follows_content () =
  let bv = (Catalog.find "bv-16").Catalog.circuit in
  let reparsed = Qasm.of_string_exn (Qasm.to_string bv) in
  check_string "structurally equal circuits fingerprint identically"
    (Fingerprint.circuit bv)
    (Fingerprint.circuit reparsed);
  let ghz = (Catalog.find "GHZ-3").Catalog.circuit in
  check "distinct circuits fingerprint distinctly" true
    (Fingerprint.circuit bv <> Fingerprint.circuit ghz)

let test_fingerprint_distinguishes_epochs () =
  let history =
    History.generate ~days:3 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5
  in
  let fp d = Fingerprint.calibration (History.day history d) in
  check "different days fingerprint differently" true
    (fp 0 <> fp 1 && fp 1 <> fp 2)

(* ---- Plan_cache ---------------------------------------------------- *)

let key n =
  {
    Plan_cache.circuit_fp = Printf.sprintf "c%d" n;
    calibration_fp = "cal";
    policy = "p";
  }

let test_cache_lru_eviction () =
  let cache = Plan_cache.create ~capacity:2 () in
  Plan_cache.insert cache (key 1) 1;
  Plan_cache.insert cache (key 2) 2;
  (* touch key 1 so key 2 becomes the eviction candidate *)
  check "1 hit" true (Plan_cache.find cache (key 1) = Some 1);
  Plan_cache.insert cache (key 3) 3;
  check_int "bounded" 2 (Plan_cache.length cache);
  check "2 evicted" true (Plan_cache.find cache (key 2) = None);
  check "1 survives" true (Plan_cache.find cache (key 1) = Some 1);
  check "3 present" true (Plan_cache.find cache (key 3) = Some 3)

(* The wholesale epoch flush is a migrate that keeps keys as they are
   or drops them. *)
let test_cache_retain () =
  let cache = Plan_cache.create ~capacity:8 () in
  List.iter (fun n -> Plan_cache.insert cache (key n) n) [ 1; 2; 3; 4 ];
  let m =
    Plan_cache.migrate cache ~decide:(fun k _ ->
        if k.Plan_cache.circuit_fp = "c2" then Some k else None)
  in
  check_int "three dropped" 3 (List.length m.Plan_cache.dropped);
  check_int "one left" 1 (Plan_cache.length cache);
  check "survivor" true (Plan_cache.find cache (key 2) = Some 2)

let test_cache_counters () =
  let hits0 = counter "service.cache.hits" in
  let misses0 = counter "service.cache.misses" in
  let evictions0 = counter "service.cache.evictions" in
  let cache = Plan_cache.create ~capacity:1 () in
  check "miss" true (Plan_cache.find cache (key 1) = None);
  Plan_cache.insert cache (key 1) 1;
  check "hit" true (Plan_cache.find cache (key 1) = Some 1);
  Plan_cache.insert cache (key 2) 2;
  check_int "one hit counted" (hits0 + 1) (counter "service.cache.hits");
  check_int "one miss counted" (misses0 + 1) (counter "service.cache.misses");
  check_int "one eviction counted" (evictions0 + 1)
    (counter "service.cache.evictions")

(* ---- Plan_cache against the reference LRU (qcheck) ---------------- *)

(* Random op streams over a small key space, replayed against the cache
   and the assoc-list {!Lru_model}, at capacities from 1 (every new key
   evicts) to beyond the key space (nothing does).  After every op the
   two must agree pointwise: the op's result, the whole LRU order, and
   the hit/miss/eviction counter movements. *)

type cache_op =
  | C_insert of int
  | C_find of int
  | C_migrate of int

let gen_cache_ops =
  QCheck2.Gen.(
    list_size (int_range 1 60)
      (oneof
         [
           map (fun n -> C_insert n) (int_bound 15);
           map (fun n -> C_find n) (int_bound 15);
           map (fun seed -> C_migrate seed) (int_bound 7);
         ]))

(* Deterministic, content-based migration decision: drop every fifth
   value, re-key even values to a seed-named calibration, keep odd
   values in place.  A key re-inserted after a migration and migrated
   again under the same seed re-keys onto an occupied key. *)
let migrate_decide seed k v =
  if v mod 5 = 4 then None
  else if v mod 2 = 0 then
    Some { k with Plan_cache.calibration_fp = Printf.sprintf "cal-m%d" seed }
  else Some k

let prop_cache_matches_model =
  QCheck2.Test.make ~name:"lru cache = assoc-list model" ~count:200
    QCheck2.Gen.(pair gen_cache_ops (int_range 1 20))
    (fun (ops, capacity) ->
      let cache = Plan_cache.create ~metrics_prefix:"test.lru" ~capacity () in
      let model = Lru_model.create ~capacity in
      let moved name =
        let before = counter ("test.lru." ^ name) in
        fun () -> counter ("test.lru." ^ name) - before
      in
      let hits = moved "hits" and misses = moved "misses" in
      let evictions = moved "evictions" in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | C_insert n ->
              Plan_cache.insert cache (key n) n;
              Lru_model.insert model (key n) n;
              true
            | C_find n ->
              Plan_cache.find cache (key n) = Lru_model.find model (key n)
            | C_migrate seed ->
              let decide = migrate_decide seed in
              let m = Plan_cache.migrate cache ~decide in
              (m.Plan_cache.kept, m.Plan_cache.dropped)
              = Lru_model.migrate model ~decide
          in
          same_result
          && Plan_cache.entries cache = model.Lru_model.entries
          && hits () = model.Lru_model.hits
          && misses () = model.Lru_model.misses
          && evictions () = model.Lru_model.evictions)
        ops)

(* ---- Admission ----------------------------------------------------- *)

let test_admission_bounds () =
  let queue = Admission.create ~limit:2 in
  check "1 admitted" true (Result.is_ok (Admission.enqueue queue "a"));
  check "2 admitted" true (Result.is_ok (Admission.enqueue queue "b"));
  (match Admission.enqueue queue "c" with
  | Error (Admission.Queue_full { depth; limit }) ->
    check_int "depth" 2 depth;
    check_int "limit" 2 limit
  | Ok () -> Alcotest.fail "third item must be rejected");
  check "fifo drain" true (Admission.drain queue = [ "a"; "b" ]);
  check_int "empty after drain" 0 (Admission.depth queue);
  check "admits again after drain" true
    (Result.is_ok (Admission.enqueue queue "d"))

(* ---- Protocol ------------------------------------------------------ *)

let test_protocol_parse () =
  (match Protocol.parse_line {|{"id":1,"workload":"bv-16"}|} with
  | Ok (Protocol.Compile r) ->
    check "id echoed" true (r.Protocol.id = Some (Json.Int 1));
    check "workload" true (r.Protocol.source = Protocol.Workload "bv-16");
    check_string "default policy" Policies.default_label r.Protocol.policy;
    check "no epoch pin" true (r.Protocol.epoch = None)
  | _ -> Alcotest.fail "compile request expected");
  (match
     Protocol.parse_line
       {|{"qasm":"OPENQASM 2.0;","policy":"baseline","epoch":3}|}
   with
  | Ok (Protocol.Compile r) ->
    check "qasm" true (r.Protocol.source = Protocol.Inline_qasm "OPENQASM 2.0;");
    check_string "policy" "baseline" r.Protocol.policy;
    check "epoch pin" true (r.Protocol.epoch = Some 3)
  | _ -> Alcotest.fail "inline request expected");
  check "advance op" true
    (Protocol.parse_line {|{"op":"advance_epoch"}|}
    = Ok (Protocol.Control Protocol.Advance_epoch));
  check "set op" true
    (Protocol.parse_line {|{"op":"set_epoch","epoch":2}|}
    = Ok (Protocol.Control (Protocol.Set_epoch 2)))

let test_protocol_parse_errors () =
  let bad line = Result.is_error (Protocol.parse_line line) in
  check "not json" true (bad "nope");
  check "not an object" true (bad "[1]");
  check "no source" true (bad {|{"id":1}|});
  check "both sources" true (bad {|{"workload":"alu","qasm":"x"}|});
  check "bad policy type" true (bad {|{"workload":"alu","policy":3}|});
  check "bad epoch type" true (bad {|{"workload":"alu","epoch":"x"}|});
  check "unknown op" true (bad {|{"op":"restart"}|});
  check "set_epoch without epoch" true (bad {|{"op":"set_epoch"}|})

let test_protocol_render_shapes () =
  let rejected =
    Protocol.render
      (Protocol.Rejected
         {
           id = Some (Json.String "j1");
           reason = Admission.Queue_full { depth = 4; limit = 4 };
         })
  in
  check_string "rejection is structured"
    {|{"id":"j1","status":"rejected","reason":"queue_full","code":"VQC130","depth":4,"limit":4}|}
    rejected;
  let failed =
    Protocol.render (Protocol.Failed { id = None; error = "boom" })
  in
  check_string "error shape" {|{"status":"error","error":"boom"}|} failed;
  let compiled estimate =
    Protocol.render
      (Protocol.Compiled
         {
           id = None;
           plan =
             {
               Protocol.policy = "vqa+vqm";
               epoch = 0;
               qubits = 1;
               layout = [| 0 |];
               swaps = 0;
               gates = 1;
               depth = 1;
               log_reliability = -0.5;
               circuit_fp = "c";
               calibration_fp = "k";
             };
           estimate;
           cache = Protocol.Hit;
           seconds = 0.0;
         })
  in
  let exact = compiled (Some 0.75) and plain = compiled None in
  check "exact estimate shape" true
    (contains exact
       {|"estimate":{"pst":0.75,"half_width":0,"stop":"exact"},"nd":|});
  check "no rider, no estimate member" false (contains plain {|"estimate"|});
  (* every rendered response reparses as one JSON object *)
  List.iter
    (fun line -> check "response is valid JSON" true
        (match Json_io.parse line with Ok (Json.Obj _) -> true | _ -> false))
    [ rejected; failed; exact; plain ]

(* Any of the three rider members alone asks for the PST; their values
   must be numbers but are otherwise ignored, so out-of-range and
   non-integer values parse like any other number. *)
let test_protocol_estimate_trigger () =
  let estimate line =
    match Protocol.parse_line line with
    | Ok (Protocol.Compile r) -> Ok r.Protocol.estimate
    | Ok (Protocol.Control _) -> Alcotest.fail "compile request expected"
    | Error message -> Error message
  in
  check "no rider" true (estimate {|{"workload":"bv-3"}|} = Ok false);
  List.iter
    (fun member ->
      check (member ^ " alone triggers") true
        (estimate (Printf.sprintf {|{"workload":"bv-3","%s":3}|} member)
        = Ok true);
      check (member ^ " must be a number") true
        (estimate (Printf.sprintf {|{"workload":"bv-3","%s":"x"}|} member)
        = Error (Printf.sprintf "%S must be a number" member)))
    [ "precision"; "max_trials"; "mc_seed" ];
  check "out-of-range values are accepted" true
    (estimate
       {|{"workload":"bv-3","precision":-1,"max_trials":0,"mc_seed":-5}|}
    = Ok true);
  check "non-integers are accepted" true
    (estimate {|{"workload":"bv-3","max_trials":1.5,"mc_seed":2.5}|}
    = Ok true)

(* ---- Service end-to-end -------------------------------------------- *)

let q5_epochs () =
  Epoch.of_history ~name:"Q5" ~coupling:Topologies.ibm_q5_tenerife
    (History.generate ~days:3 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5)

let request ?id ?policy ?epoch workload =
  {
    Protocol.id = Option.map (fun i -> Json.Int i) id;
    source = Protocol.Workload workload;
    policy = Option.value policy ~default:Policies.default_label;
    epoch;
    estimate = false;
  }

let batch = [ "bv-3"; "bv-4"; "GHZ-3"; "TriSwap"; "bv-3" ]

let run_batch service =
  List.iteri
    (fun i name ->
      match Service.submit service (request ~id:i name) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "unexpected rejection")
    batch;
  Service.flush service

(* Strip the nd section at the value level: deterministic fields must
   be byte-identical across jobs and cache configurations. *)
let deterministic_lines responses =
  List.map
    (fun response ->
      Protocol.render
        (match response with
        | Protocol.Compiled c ->
          Protocol.Compiled { c with seconds = 0.0; cache = Protocol.Bypass }
        | other -> other))
    responses

let test_service_deterministic_across_jobs_and_cache () =
  let runs =
    List.map
      (fun config ->
        Service.with_service ~config (q5_epochs ()) (fun service ->
            deterministic_lines (run_batch service)))
      [
        { Service.default_config with Service.jobs = 1 };
        { Service.default_config with Service.jobs = 4 };
        { Service.default_config with Service.jobs = 1; cache_enabled = false };
        { Service.default_config with Service.jobs = 4; cache_enabled = false };
      ]
  in
  match runs with
  | reference :: others ->
    check_int "five responses" (List.length batch) (List.length reference);
    List.iteri
      (fun i lines ->
        List.iter2
          (check_string (Printf.sprintf "run %d matches jobs-1 cached" (i + 1)))
          reference lines)
      others
  | [] -> assert false

let test_service_warm_cache_hits () =
  Service.with_service (q5_epochs ()) (fun service ->
      let hits0 = counter "service.cache.hits" in
      let cold = run_batch service in
      (* the duplicate bv-3 in the batch compiles once but both
         responses are cold-path responses *)
      check "cold run has no hits" true
        (List.for_all
           (function
             | Protocol.Compiled { cache = Protocol.Miss; _ } -> true
             | _ -> false)
           cold);
      let warm = run_batch service in
      check "warm run is all hits" true
        (List.for_all
           (function
             | Protocol.Compiled { cache = Protocol.Hit; _ } -> true
             | _ -> false)
           warm);
      check "warm hits counted" true (counter "service.cache.hits" > hits0);
      List.iter2
        (check_string "warm deterministic fields match cold")
        (deterministic_lines cold) (deterministic_lines warm))

(* The TCP server's L2: sessions sharing a store serve byte-identical
   deterministic fields to a store-less run — store temperature may
   only move metrics and the "nd" section. *)
let test_service_shared_store_warms_across_sessions () =
  let baseline =
    Service.with_service (q5_epochs ()) (fun service ->
        deterministic_lines (run_batch service))
  in
  let store = Service.shared_store ~capacity:64 () in
  let run_with_store () =
    let service = Service.create ~store (q5_epochs ()) in
    Fun.protect
      ~finally:(fun () -> Service.shutdown service)
      (fun () -> run_batch service)
  in
  let first = run_with_store () in
  let store_hits0 = counter "serve.store.hits" in
  let second = run_with_store () in
  check "second session warms from the store" true
    (counter "serve.store.hits" > store_hits0);
  List.iter2
    (check_string "store-warmed bytes match the store-less run")
    baseline (deterministic_lines first);
  List.iter2
    (check_string "second session bytes match the store-less run")
    baseline (deterministic_lines second)

let test_service_queue_overflow_is_structured () =
  let config = { Service.default_config with Service.queue_limit = 2 } in
  Service.with_service ~config (q5_epochs ()) (fun service ->
      check "1 admitted" true (Result.is_ok (Service.submit service (request "bv-3")));
      check "2 admitted" true (Result.is_ok (Service.submit service (request "bv-4")));
      (match Service.submit service (request "GHZ-3") with
      | Error reason ->
        let line =
          Protocol.render (Protocol.Rejected { id = None; reason })
        in
        check "rejection renders" true
          (match Json_io.parse line with
          | Ok json ->
            Option.bind (Json_io.member "status" json) Json_io.string_value
            = Some "rejected"
          | Error _ -> false)
      | Ok () -> Alcotest.fail "third submit must be rejected");
      check_int "only admitted requests compile" 2
        (List.length (Service.flush service)))

let test_service_epoch_rotation_invalidates () =
  Service.with_service (q5_epochs ()) (fun service ->
      let compile_one ?epoch () =
        match Service.submit service (request ?epoch "bv-3") with
        | Ok () -> begin
          match Service.flush service with
          | [ Protocol.Compiled { plan; cache; _ } ] -> (cache, plan)
          | _ -> Alcotest.fail "one compiled response expected"
        end
        | Error _ -> Alcotest.fail "unexpected rejection"
      in
      let deterministic plan =
        Protocol.render
          (Protocol.Compiled
             { id = None; plan; estimate = None; cache = Protocol.Bypass;
               seconds = 0.0 })
      in
      let first_cache, first_plan = compile_one () in
      check "cold" true (first_cache = Protocol.Miss);
      check "hot on repeat" true (fst (compile_one ()) = Protocol.Hit);
      let invalidated0 = counter "service.cache.invalidated" in
      let next, migration = Service.advance_epoch service in
      check_int "rotated to epoch 1" 1 next;
      check "rotation invalidated the plan" true
        (counter "service.cache.invalidated" > invalidated0);
      check_int "migration reports the invalidation" 1
        migration.Epoch.invalidated;
      check_int "nothing retained across a wholesale advance" 0
        migration.Epoch.retained;
      let second_cache, second_plan = compile_one () in
      check "cold again after rotation" true (second_cache = Protocol.Miss);
      check "new epoch, new calibration fingerprint" true
        (second_plan.Protocol.calibration_fp
        <> first_plan.Protocol.calibration_fp);
      (* pinning the superseded epoch recompiles against it exactly *)
      let _, pinned_plan = compile_one ~epoch:0 () in
      check_string "pinned epoch reproduces the original plan fields"
        (deterministic first_plan) (deterministic pinned_plan))

(* Edge case: with a single epoch, advance wraps to itself and the
   wholesale path must invalidate nothing — every cached plan is still
   keyed by the live calibration. *)
let test_epoch_single_wraps_to_itself () =
  let single =
    Epoch.of_history ~name:"Q5" ~coupling:Topologies.ibm_q5_tenerife
      (History.generate ~days:1 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5)
  in
  Service.with_service single (fun service ->
      (match Service.submit service (request "bv-3") with
      | Ok () -> ignore (Service.flush service)
      | Error _ -> Alcotest.fail "unexpected rejection");
      let next, migration = Service.advance_epoch service in
      check_int "wraps to epoch 0" 0 next;
      check_int "nothing invalidated" 0 migration.Epoch.invalidated;
      check_int "the plan survives" 1 migration.Epoch.retained;
      (match Service.submit service (request "bv-3") with
      | Ok () -> begin
        match Service.flush service with
        | [ Protocol.Compiled { cache = Protocol.Hit; _ } ] -> ()
        | _ -> Alcotest.fail "cached plan must survive a wrapped advance"
      end
      | Error _ -> Alcotest.fail "unexpected rejection"))

let drift_config threshold =
  {
    Service.default_config with
    Service.drift = Some { Vqc_drift.Retention.threshold };
  }

(* A forgiving threshold retains every plan across the advance (after
   re-verification); requests against the new epoch then hit the cache
   with the retained plan's original provenance. *)
let test_service_drift_retains_and_recompiles () =
  Service.with_service ~config:(drift_config 1.0) (q5_epochs ())
    (fun service ->
      let submit_all () =
        List.iter
          (fun workload ->
            match Service.submit service (request workload) with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "unexpected rejection")
          [ "bv-3"; "bv-4"; "GHZ-3" ];
        Service.flush service
      in
      let cold = submit_all () in
      check_int "three compiled" 3 (List.length cold);
      let recompiles0 = counter "drift.recompiles" in
      let next, migration = Service.advance_epoch service in
      check_int "rotated to epoch 1" 1 next;
      check_int "all three retained" 3 migration.Epoch.retained;
      check_int "all three re-verified" 3 migration.Epoch.reverified;
      check_int "nothing recompiled" 0 migration.Epoch.recompiled;
      check_int "nothing invalidated" 0 migration.Epoch.invalidated;
      check_int "no background compiles" recompiles0
        (counter "drift.recompiles");
      let warm = submit_all () in
      List.iter
        (fun response ->
          match response with
          | Protocol.Compiled { plan; cache; _ } ->
            check "retained plan serves as a hit" true (cache = Protocol.Hit);
            check_int "provenance keeps the compile-time epoch" 0
              plan.Protocol.epoch
          | _ -> Alcotest.fail "compiled response expected")
        warm;
      (* an impossible threshold demotes everything: the migration
         recompiles in the background and the cache stays warm *)
      Service.with_service ~config:(drift_config 1e-12) (q5_epochs ())
        (fun strict ->
          List.iter
            (fun workload ->
              match Service.submit strict (request workload) with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "unexpected rejection")
            [ "bv-3"; "bv-4"; "GHZ-3" ];
          ignore (Service.flush strict);
          let _, migration = Service.advance_epoch strict in
          check_int "nothing retained" 0 migration.Epoch.retained;
          check_int "all demoted plans recompiled" 3
            migration.Epoch.recompiled;
          check_int "all invalidated" 3 migration.Epoch.invalidated;
          List.iter
            (fun workload ->
              match Service.submit strict (request workload) with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "unexpected rejection")
            [ "bv-3"; "bv-4"; "GHZ-3" ];
          List.iter
            (fun response ->
              match response with
              | Protocol.Compiled { plan; cache; _ } ->
                check "background recompile pre-warmed the cache" true
                  (cache = Protocol.Hit);
                check_int "recompiled plan carries the new epoch" 1
                  plan.Protocol.epoch
              | _ -> Alcotest.fail "compiled response expected")
            (Service.flush strict)))

(* threshold = 0 must be byte-identical to no drift configuration at
   all: same responses, same migration tallies, over the same request
   stream. *)
let test_service_drift_zero_threshold_is_wholesale () =
  let script service =
    let submit_all () =
      List.iter
        (fun workload ->
          match Service.submit service (request workload) with
          | Ok () -> ()
          | Error _ -> Alcotest.fail "unexpected rejection")
        [ "bv-3"; "bv-4"; "GHZ-3" ];
      Service.flush service
    in
    let before = submit_all () in
    let _, migration = Service.advance_epoch service in
    let after = submit_all () in
    (deterministic_lines (before @ after), migration)
  in
  let wholesale_lines, wholesale_migration =
    Service.with_service (q5_epochs ()) script
  in
  let zero_lines, zero_migration =
    Service.with_service ~config:(drift_config 0.0) (q5_epochs ()) script
  in
  List.iter2
    (check_string "threshold 0 reproduces the wholesale responses")
    wholesale_lines zero_lines;
  check "threshold 0 reproduces the wholesale migration" true
    (wholesale_migration = zero_migration)

let test_service_failures_are_responses () =
  Service.with_service (q5_epochs ()) (fun service ->
      let submit r =
        match Service.submit service r with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "unexpected rejection"
      in
      submit (request "no-such-workload");
      submit (request ~policy:"no-such-policy" "bv-3");
      submit (request ~epoch:99 "bv-3");
      (* bv-16 cannot fit the 5-qubit device *)
      submit (request "bv-16");
      submit
        {
          Protocol.id = None;
          source = Protocol.Inline_qasm "OPENQASM 2.0; qreg q[broken";
          policy = Policies.default_label;
          epoch = None;
          estimate = false;
        };
      let responses = Service.flush service in
      check_int "five failures" 5 (List.length responses);
      List.iter
        (fun response ->
          check "structured failure" true
            (match response with Protocol.Failed _ -> true | _ -> false))
        responses)

(* ---- the estimate rider -------------------------------------------- *)

module Context = Vqc_experiments.Context
module Compiler = Vqc_mapper.Compiler
module Monte_carlo = Vqc_sim.Monte_carlo
module Estimator = Vqc_sim.Estimator
module Rng = Vqc_rng.Rng

(* Every Table-1 circuit under every serving policy on the seed-2 Q20
   device, served with the rider: (label, device, physical circuit as
   the test compiles it, served pst). *)
let rider_plans =
  lazy
    (let device = (Context.make ~seed:2).Context.q20 in
     let requests =
       List.concat_map
         (fun (entry : Catalog.entry) ->
           List.map (fun label -> (entry, label)) (Policies.names ()))
         Catalog.table1
     in
     let responses =
       Service.with_service (Epoch.of_devices [ device ]) (fun service ->
           List.iter
             (fun ((entry : Catalog.entry), label) ->
               match
                 Service.submit service
                   {
                     Protocol.id = None;
                     source = Protocol.Workload entry.Catalog.name;
                     policy = label;
                     epoch = None;
                     estimate = true;
                   }
               with
               | Ok () -> ()
               | Error _ -> Alcotest.fail "unexpected rejection")
             requests;
           Service.flush service)
     in
     List.map2
       (fun ((entry : Catalog.entry), label) response ->
         let name = entry.Catalog.name ^ "/" ^ label in
         match response with
         | Protocol.Compiled { estimate = Some pst; _ } ->
           let policy = (Option.get (Policies.find label)).Policies.policy in
           let compiled = Compiler.compile device policy entry.Catalog.circuit in
           (name, device, compiled.Compiler.physical, pst)
         | _ -> Alcotest.failf "%s: a compiled response with a pst expected" name)
       requests responses)

(* The served value is the success probability of the paper's error
   model exactly: the product over its independent failure events. *)
let test_rider_is_exact_product () =
  let plans = Lazy.force rider_plans in
  check_int "7 circuits x 7 policies" 49 (List.length plans);
  List.iter
    (fun (name, device, physical, pst) ->
      let product =
        Array.fold_left
          (fun acc p -> acc *. (1.0 -. p))
          1.0
          (Monte_carlo.failure_probabilities device physical)
      in
      if Float.abs (pst -. product) > 1e-12 *. product then
        Alcotest.failf "%s: served %.17g, product %.17g" name pst product)
    plans

(* The sampled rider the exact value replaced lands within 4 sigma of
   it.  Every plan shares the seed-1 stream, so the deviations are
   correlated and a 95% interval test would be the wrong bar. *)
let test_rider_matches_sampled () =
  let config = { Estimator.default_config with Estimator.precision = 5e-3 } in
  List.iter
    (fun (name, device, physical, pst) ->
      let mc = Monte_carlo.run_adaptive ~config (Rng.make 1) device physical in
      let sigma =
        sqrt (pst *. (1.0 -. pst) /. float_of_int mc.Estimator.trials)
      in
      if Float.abs (mc.Estimator.mean -. pst) > 4.0 *. sigma then
        Alcotest.failf "%s: sampled %.6f vs exact %.6f (sigma %.2g, %d trials)"
          name mc.Estimator.mean pst sigma mc.Estimator.trials)
    (Lazy.force rider_plans)

(* ---- runner -------------------------------------------------------- *)

let () =
  Alcotest.run "vqc_service"
    [
      ( "json io",
        [
          Alcotest.test_case "values" `Quick test_json_parse_values;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          QCheck_alcotest.to_alcotest prop_json_roundtrips_emitter;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "known vectors" `Quick test_fingerprint_known_value;
          Alcotest.test_case "content addressed" `Quick
            test_fingerprint_follows_content;
          Alcotest.test_case "epoch sensitive" `Quick
            test_fingerprint_distinguishes_epochs;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "retain" `Quick test_cache_retain;
          Alcotest.test_case "counters" `Quick test_cache_counters;
          QCheck_alcotest.to_alcotest prop_cache_matches_model;
        ] );
      ( "admission",
        [ Alcotest.test_case "bounds" `Quick test_admission_bounds ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "parse errors" `Quick test_protocol_parse_errors;
          Alcotest.test_case "render shapes" `Quick test_protocol_render_shapes;
          Alcotest.test_case "estimate rider trigger" `Quick
            test_protocol_estimate_trigger;
        ] );
      ( "service",
        [
          Alcotest.test_case "deterministic across jobs and cache" `Quick
            test_service_deterministic_across_jobs_and_cache;
          Alcotest.test_case "warm cache hits" `Quick
            test_service_warm_cache_hits;
          Alcotest.test_case "shared store warms across sessions" `Quick
            test_service_shared_store_warms_across_sessions;
          Alcotest.test_case "queue overflow" `Quick
            test_service_queue_overflow_is_structured;
          Alcotest.test_case "epoch rotation" `Quick
            test_service_epoch_rotation_invalidates;
          Alcotest.test_case "single epoch wraps without invalidation" `Quick
            test_epoch_single_wraps_to_itself;
          Alcotest.test_case "drift retention and background recompile"
            `Quick test_service_drift_retains_and_recompiles;
          Alcotest.test_case "drift threshold 0 is wholesale" `Quick
            test_service_drift_zero_threshold_is_wholesale;
          Alcotest.test_case "failures are responses" `Quick
            test_service_failures_are_responses;
        ] );
      ( "rider",
        [
          Alcotest.test_case "served pst is the exact product" `Quick
            test_rider_is_exact_product;
          Alcotest.test_case "sampled rider within 4 sigma" `Slow
            test_rider_matches_sampled;
        ] );
    ]

(* Equivalence suite for the optimized mapper paths.

   The layer memo (Router), the lower-bound candidate pruning (Sabre)
   and the shared cost-model cache (Cost.cached, via Compiler's [memo]
   flag) are performance features with a hard contract: the emitted
   physical gate stream, layouts and routing statistics must be
   byte-identical to the unoptimized paths.  This suite holds them to
   it on random programs and then proves the whole catalog x policy
   matrix clean under the static plan verifier.

   The specialised layer search itself is held to a generic A* over
   functional layouts (Astar + Layer_oracle), and the route statistics
   of the Table 1 x policy matrix are pinned across calibration days. *)

module Circuit = Vqc_circuit.Circuit
module Gate = Vqc_circuit.Gate
module Calibration_model = Vqc_device.Calibration_model
module Topologies = Vqc_device.Topologies
module Device = Vqc_device.Device
module History = Vqc_device.History
module Layout = Vqc_mapper.Layout
module Cost = Vqc_mapper.Cost
module Router = Vqc_mapper.Router
module Sabre = Vqc_mapper.Sabre
module Allocation = Vqc_mapper.Allocation
module Compiler = Vqc_mapper.Compiler
module Catalog = Vqc_workloads.Catalog
module Context = Vqc_experiments.Context
module Policies = Vqc_service.Policies
module Json_io = Vqc_service.Json_io
module Trace = Vqc_obs.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let cx c t = Gate.Cnot { control = c; target = t }
let h q = Gate.One_qubit (Gate.H, q)
let meas q = Gate.Measure { qubit = q; cbit = q }

let gen_program =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let gate =
      let* kind = int_bound 3 in
      let* q = int_bound (n - 1) in
      match kind with
      | 0 | 1 ->
        let* other = int_bound (n - 2) in
        let t = if other >= q then other + 1 else other in
        return (cx q t)
      | 2 -> return (h q)
      | _ -> return (meas q)
    in
    let* gates = list_size (int_bound 25) gate in
    return (Circuit.of_gates n gates))

let compiled_equal (a : Compiler.compiled) (b : Compiler.compiled) =
  Circuit.equal a.Compiler.physical b.Compiler.physical
  && Layout.equal a.Compiler.initial b.Compiler.initial
  && Layout.equal a.Compiler.final b.Compiler.final

let routed_equal (a : Router.result) (b : Router.result) =
  Circuit.equal a.Router.circuit b.Router.circuit
  && Layout.equal a.Router.initial b.Router.initial
  && Layout.equal a.Router.final b.Router.final
  && a.Router.stats = b.Router.stats

(* The memo is process-wide state; deliberately NOT cleared between
   iterations, so later programs exercise lookups against entries from
   earlier ones — a key collision would surface as an inequality. *)
let prop_memo_equivalent =
  QCheck2.Test.make
    ~name:"memoized compilation emits the reference gate stream" ~count:40
    gen_program (fun program ->
      let device = Calibration_model.ibm_q20 ~seed:4 in
      List.for_all
        (fun policy ->
          compiled_equal
            (Compiler.compile ~memo:false device policy program)
            (Compiler.compile ~memo:true device policy program))
        [
          Compiler.baseline;
          Compiler.vqa_vqm;
          Compiler.sabre;
          Compiler.noise_sabre;
        ])

let prop_sabre_prune_equivalent =
  QCheck2.Test.make
    ~name:"pruned SABRE emits the unpruned gate stream" ~count:60 gen_program
    (fun program ->
      let device = Calibration_model.ibm_q20 ~seed:4 in
      let layout = Allocation.allocate device program Allocation.Locality in
      List.for_all
        (fun model ->
          let cost = Cost.make device model in
          routed_equal
            (Sabre.route ~prune:false cost layout program)
            (Sabre.route ~prune:true cost layout program))
        [ Cost.Hops; Cost.Reliability ])

let prop_router_memo_equivalent =
  (* Router.route directly, both cost models, with program SWAPs
     forbidden by construction (gen emits none) — the memo must replay
     searches across programs without contaminating results *)
  QCheck2.Test.make ~name:"memoized routing replays A* exactly" ~count:40
    gen_program (fun program ->
      let device = Calibration_model.ibm_q20 ~seed:4 in
      let layout = Allocation.allocate device program Allocation.Locality in
      List.for_all
        (fun model ->
          let cost = Cost.make device model in
          routed_equal
            (Router.route ~memo:false cost layout program)
            (Router.route ~memo:true cost layout program))
        [ Cost.Hops; Cost.Reliability ])

let test_memo_equivalent_on_workloads () =
  (* full-size workloads where the memo actually fires across layers *)
  let device = Context.default.Context.q20 in
  Router.memo_clear ();
  List.iter
    (fun name ->
      let program = (Catalog.find name).Catalog.circuit in
      List.iter
        (fun { Policies.label; policy; _ } ->
          let reference = Compiler.compile ~memo:false device policy program in
          let cold = Compiler.compile ~memo:true device policy program in
          let warm = Compiler.compile ~memo:true device policy program in
          check
            (Printf.sprintf "%s/%s cold" name label)
            true
            (compiled_equal reference cold);
          check
            (Printf.sprintf "%s/%s warm" name label)
            true
            (compiled_equal reference warm))
        Policies.all)
    [ "bv-16"; "qft-12" ]

(* ---- reference A* ----------------------------------------------------- *)

(* Sliding puzzle on a line: move a token from 0 to [goal] paying 1 per
   step; heuristic is exact distance. *)
let line_problem goal =
  {
    Astar.start = 0;
    is_goal = (fun s -> s = goal);
    successors = (fun s -> [ (s + 1, 1.0); (s - 1, 1.0) ]);
    heuristic = (fun s -> float_of_int (abs (goal - s)));
    key = string_of_int;
  }

let test_astar_line () =
  match Astar.search (line_problem 7) with
  | Some outcome ->
    check_float "cost" 7.0 outcome.Astar.cost;
    check_int "goal" 7 outcome.Astar.goal
  | None -> Alcotest.fail "no solution"

let test_astar_path_reconstruction () =
  match Astar.search_path (line_problem 3) with
  | Some (states, cost, _) ->
    Alcotest.(check (list int)) "path" [ 0; 1; 2; 3 ] states;
    check_float "cost" 3.0 cost
  | None -> Alcotest.fail "no solution"

let test_astar_expansion_cap () =
  check "cap exhausts" true (Astar.search ~max_expansions:3 (line_problem 50) = None)

let test_astar_prefers_cheap_route () =
  (* two routes to goal: direct expensive edge vs two cheap edges *)
  let problem =
    {
      Astar.start = "s";
      is_goal = (fun s -> s = "g");
      successors =
        (fun s ->
          match s with
          | "s" -> [ ("g", 10.0); ("m", 1.0) ]
          | "m" -> [ ("g", 1.0) ]
          | _ -> []);
      heuristic = (fun _ -> 0.0);
      key = Fun.id;
    }
  in
  match Astar.search_path problem with
  | Some (states, cost, _) ->
    Alcotest.(check (list string)) "via m" [ "s"; "m"; "g" ] states;
    check_float "cost 2" 2.0 cost
  | None -> Alcotest.fail "no solution"

(* ---- layer search vs. the reference -------------------------------- *)

(* The same seed-2 Q20 history Context.default and vqc-serve use. *)
let history =
  History.generate ~days:52 ~seed:2 ~coupling:Topologies.ibm_q20_tokyo 20

let device_on day =
  Device.make ~name:"Q20" ~coupling:Topologies.ibm_q20_tokyo
    (History.day history day)

let oracle_days = [ 0; 25; 51 ]

let oracle_costs =
  List.concat_map
    (fun day ->
      let device = device_on day in
      List.map
        (fun model -> ((day, model), Cost.make device model))
        [ Cost.Hops; Cost.Reliability ])
    oracle_days

type layer_case = {
  day : int;
  model : Cost.model;
  bridges : bool;
  mah : int option;
  cap : int;
  placement : int array;  (* program -> physical *)
  layer : Gate.t list;
  next_pairs : (int * int) list;
}

(* A layer is disjoint program pairs — mostly CNOTs, some program SWAPs
   (which never bridge) — over a random injective placement. *)
let gen_layer_case =
  QCheck2.Gen.(
    let* day = oneofl oracle_days in
    let* model = oneofl [ Cost.Hops; Cost.Reliability ] in
    let* bridges = bool in
    let* mah = oneofl [ None; Some 0; Some 1; Some 2 ] in
    let* cap = oneofl [ 3; 50; 100_000 ] in
    let* programs = int_range 2 12 in
    let* physicals = shuffle_l (List.init 20 Fun.id) in
    let* order = shuffle_l (List.init programs Fun.id) in
    let* pairs = int_range 1 (min 4 (programs / 2)) in
    let* kinds = list_repeat pairs (int_bound 3) in
    let* next_pairs =
      list_size (int_bound 3)
        (let* a = int_bound (programs - 1) in
         let* b = int_bound (programs - 2) in
         return (a, if b >= a then b + 1 else b))
    in
    let order = Array.of_list order in
    let layer =
      List.mapi
        (fun i kind ->
          let a = order.(2 * i) and b = order.((2 * i) + 1) in
          if kind = 0 then Gate.Swap (a, b) else cx a b)
        kinds
    in
    return
      {
        day;
        model;
        bridges;
        mah;
        cap;
        placement = Array.sub (Array.of_list physicals) 0 programs;
        layer;
        next_pairs;
      })

let print_layer_case c =
  Printf.sprintf "day %d %s bridges=%b mah=%s cap=%d placement=[%s] layer=[%s] next=[%s]"
    c.day
    (match c.model with Cost.Hops -> "hops" | Cost.Reliability -> "reliability")
    c.bridges
    (match c.mah with None -> "none" | Some m -> string_of_int m)
    c.cap
    (String.concat ";" (Array.to_list (Array.map string_of_int c.placement)))
    (String.concat ";" (List.map Gate.to_string c.layer))
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "%d,%d" a b) c.next_pairs))

let prop_layer_search_matches_oracle =
  QCheck2.Test.make ~name:"layer search matches the reference A*" ~count:300
    ~print:print_layer_case gen_layer_case (fun c ->
      let cost = List.assoc (c.day, c.model) oracle_costs in
      let layout = Layout.of_assignment ~physicals:20 c.placement in
      Router.layer_search ?max_additional_hops:c.mah ~max_expansions:c.cap
        ~bridges:c.bridges cost layout c.layer ~next_pairs:c.next_pairs
      = Layer_oracle.search ?max_additional_hops:c.mah ~max_expansions:c.cap
          ~bridges:c.bridges cost layout c.layer ~next_pairs:c.next_pairs)

(* ---- route statistics pinned across calibration days ----------------

   fixtures/route_stats.expected holds, per plan, the route statistics
   and the chosen candidate (allocation/routing, read from the compile
   trace event) of Table 1 x the service policies plus vqm-mah0/1 on
   days 0, 25 and 51 of the seed-2 history, recorded from the generic A*
   router.  rnd-SD and rnd-LD route for seconds on some days, so they are
   pinned on day 0 only. *)

let pinned_policies =
  List.map (fun e -> e.Policies.policy) Policies.all
  @ [ Compiler.vqm_limited 0; Compiler.vqm_limited 1 ]

let layout_text layout =
  String.concat ","
    (Array.to_list (Array.map string_of_int (Layout.assignment layout)))

let plan_line day device (entry : Catalog.entry) (policy : Compiler.policy) =
  let events = ref [] in
  let sink =
    { Trace.write = (fun line -> events := line :: !events); flush = ignore }
  in
  let compiled =
    Trace.with_sink sink (fun () ->
        Compiler.compile device policy entry.Catalog.circuit)
  in
  let field json name =
    Option.bind (Json_io.member name json) Json_io.string_value
    |> Option.value ~default:"?"
  in
  let chosen =
    List.find_map
      (fun line ->
        match Json_io.parse line with
        | Ok json when Json_io.member "event" json = Some (Vqc_obs.Json.String "compile")
          ->
          Some (field json "allocation" ^ "/" ^ field json "routing")
        | Ok _ | Error _ -> None)
      !events
    |> Option.value ~default:"?"
  in
  let stats = compiled.Compiler.stats in
  Printf.sprintf
    "day%d %s %s %s swaps=%d expansions=%d fallbacks=%d initial=%s final=%s"
    day entry.Catalog.name policy.Compiler.label chosen
    stats.Router.swaps_inserted stats.Router.astar_expansions
    stats.Router.greedy_fallbacks
    (layout_text compiled.Compiler.initial)
    (layout_text compiled.Compiler.final)

let route_stats_lines () =
  List.concat_map
    (fun day ->
      let device = device_on day in
      List.concat_map
        (fun (entry : Catalog.entry) ->
          if day <> 0 && List.mem entry.Catalog.name [ "rnd-SD"; "rnd-LD" ] then []
          else List.map (plan_line day device entry) pinned_policies)
        Catalog.table1)
    oracle_days

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line -> line <> "")

let test_route_stats_pinned () =
  Alcotest.(check (list string))
    "route stats match the recorded reference"
    (read_lines "fixtures/route_stats.expected")
    (route_stats_lines ())

(* Every compile below this line is replayed by the translation
   validator: a plan that is not legal and faithful raises
   Invalid_plan and fails the test. *)
let () = Vqc_check.Verify.install_compiler_check ()

let test_catalog_matrix_verifies_clean () =
  (* the whole catalog under every service policy, optimized pipeline:
     memoized routing, pruned SABRE, cached cost models — all 133 plans
     must pass the static verifier *)
  let device = Context.default.Context.q20 in
  let plans = ref 0 in
  List.iter
    (fun (entry : Catalog.entry) ->
      List.iter
        (fun { Policies.policy; _ } ->
          ignore (Compiler.compile ~memo:true device policy entry.Catalog.circuit);
          incr plans)
        Policies.all)
    Catalog.all;
  Alcotest.(check int)
    "all catalog x policy plans verified"
    (List.length Catalog.all * List.length Policies.all)
    !plans

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "vqc_mapper_equiv"
    [
      ( "memo",
        [
          Alcotest.test_case "workload equivalence" `Slow
            test_memo_equivalent_on_workloads;
        ]
        @ qcheck [ prop_memo_equivalent; prop_router_memo_equivalent ] );
      ("sabre", qcheck [ prop_sabre_prune_equivalent ]);
      ( "astar",
        [
          Alcotest.test_case "line search" `Quick test_astar_line;
          Alcotest.test_case "path reconstruction" `Quick
            test_astar_path_reconstruction;
          Alcotest.test_case "expansion cap" `Quick test_astar_expansion_cap;
          Alcotest.test_case "prefers cheap route" `Quick
            test_astar_prefers_cheap_route;
        ] );
      ("layers", qcheck [ prop_layer_search_matches_oracle ]);
      ( "stats",
        [
          Alcotest.test_case "pinned across days" `Slow test_route_stats_pinned;
        ] );
      ( "verify",
        [
          Alcotest.test_case "catalog matrix clean" `Slow
            test_catalog_matrix_verifies_clean;
        ] );
    ]

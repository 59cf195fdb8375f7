(* Tests for the partitioning case study (paper Section 8). *)

module Circuit = Vqc_circuit.Circuit
module Gate = Vqc_circuit.Gate
module Device = Vqc_device.Device
module Calibration = Vqc_device.Calibration
module Topologies = Vqc_device.Topologies
module Partition = Vqc_partition.Partition
module Metrics = Vqc_sim.Metrics
module Catalog = Vqc_workloads.Catalog

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let q20 () = Vqc_experiments.Context.default.Vqc_experiments.Context.q20

let disjoint a b = List.for_all (fun x -> not (List.mem x b)) a

let test_two_copy_candidates_are_disjoint_and_sized () =
  let device = q20 () in
  let candidates = Partition.two_copy_candidates device ~size:8 in
  check "some candidates" true (candidates <> []);
  List.iter
    (fun (x, y) ->
      check_int "x size" 8 (List.length x);
      check_int "y size" 8 (List.length y);
      check "disjoint" true (disjoint x y))
    candidates

let test_two_copy_candidates_impossible_size () =
  (* two disjoint 11-qubit regions cannot fit on 20 qubits *)
  let device = q20 () in
  check "no candidates" true (Partition.two_copy_candidates device ~size:11 = [])

let test_evaluate_on_region () =
  let device = q20 () in
  let ghz = Vqc_workloads.Ghz.circuit 4 in
  let copy = Partition.evaluate_on_region device [ 0; 1; 2; 5; 6 ] ghz in
  check "positive pst" true (copy.Partition.pst > 0.0 && copy.Partition.pst <= 1.0);
  check "positive duration" true (copy.Partition.duration_ns > 0.0);
  Alcotest.(check (list int)) "region recorded" [ 0; 1; 2; 5; 6 ]
    copy.Partition.region;
  check "too-small region raises" true
    (try
       let _ = Partition.evaluate_on_region device [ 0; 1 ] ghz in
       false
     with Invalid_argument _ -> true)

let test_compare_strategies_invariants () =
  let device = q20 () in
  let circuit = (Catalog.find "bv-10").Catalog.circuit in
  let cmp = Partition.compare_strategies device circuit in
  (* copies occupy disjoint regions of the right size *)
  check_int "copy x size" 10 (List.length cmp.Partition.copy_x.Partition.region);
  check_int "copy y size" 10 (List.length cmp.Partition.copy_y.Partition.region);
  check "copies disjoint" true
    (disjoint cmp.Partition.copy_x.Partition.region
       cmp.Partition.copy_y.Partition.region);
  (* copy x is the stronger one by construction *)
  check "x at least as strong as y" true
    (cmp.Partition.copy_x.Partition.pst >= cmp.Partition.copy_y.Partition.pst);
  (* the single strong copy is at least as reliable as the best split copy *)
  check "single copy strongest" true
    (cmp.Partition.single.Partition.pst
    >= cmp.Partition.copy_x.Partition.pst -. 1e-9);
  (* the paper's core trade-off: two copies buy rate, one copy buys PST.
     Both copies share the merged circuit's shot clock, so the two-copy
     rate is at least the stronger copy's under that clock. *)
  let shot =
    Float.max cmp.Partition.copy_x.Partition.duration_ns
      cmp.Partition.copy_y.Partition.duration_ns
  in
  let stpt_x_shared =
    Metrics.stpt ~pst:cmp.Partition.copy_x.Partition.pst ~duration_ns:shot
  in
  check "two-copy stpt dominates its stronger copy" true
    (cmp.Partition.stpt_two >= stpt_x_shared -. 1e-9)

let test_compare_strategies_rejects_wide_program () =
  let device = q20 () in
  check "raises" true
    (try
       let _ =
         Partition.compare_strategies device
           ((Catalog.find "bv-16").Catalog.circuit)
       in
       false
     with Invalid_argument _ -> true)

(* A hand-built machine where the only strong links sit mid-chip, so any
   two-copy split has to break them up while a single copy can claim them
   (the paper's Figure 15 story: two copies "resort to the weaker
   links"). *)
let test_single_copy_wins_on_contrived_machine () =
  let c = Calibration.create 6 in
  List.iter
    (fun (u, v, e) -> Calibration.set_link_error c u v e)
    [ (0, 1, 0.4); (1, 2, 0.4); (2, 3, 0.01); (3, 4, 0.01); (4, 5, 0.4) ];
  let device = Device.make ~name:"lopsided" ~coupling:(Topologies.linear 6) c in
  let program =
    Circuit.of_gates 3
      [
        Gate.Cnot { control = 0; target = 1 };
        Gate.Cnot { control = 1; target = 2 };
        Gate.Measure { qubit = 0; cbit = 0 };
        Gate.Measure { qubit = 1; cbit = 1 };
        Gate.Measure { qubit = 2; cbit = 2 };
      ]
  in
  let cmp = Partition.compare_strategies device program in
  check "one strong copy wins" true
    (cmp.Partition.stpt_single > cmp.Partition.stpt_two)

let test_two_copies_win_on_uniform_machine () =
  (* no variation: two copies double the trial rate at identical PST *)
  let device =
    Vqc_device.Calibration_model.uniform_device ~name:"uniform"
      ~coupling:(Topologies.grid ~rows:2 ~cols:4) 8 ~error_2q:0.02
  in
  let program =
    Circuit.of_gates 3
      [
        Gate.Cnot { control = 0; target = 1 };
        Gate.Measure { qubit = 0; cbit = 0 };
        Gate.Measure { qubit = 1; cbit = 1 };
      ]
  in
  let cmp = Partition.compare_strategies device program in
  check "two copies win" true (cmp.Partition.stpt_two > cmp.Partition.stpt_single)

(* Partition.two_copy_candidates as it reads, growing with the reference
   Kcore_oracle: the flat-array growth must yield the same candidate
   lists, in the same order. *)
let reference_two_copy_candidates device ~size =
  let module Graph = Vqc_graph.Graph in
  let success = Device.success_graph device in
  let n = Graph.node_count success in
  let seen = Hashtbl.create 16 in
  let candidates = ref [] in
  for seed = 0 to n - 1 do
    match Kcore_oracle.grow_subgraph success ~size ~seed with
    | None -> ()
    | Some region_x ->
      let blocked = Array.make n false in
      List.iter (fun q -> blocked.(q) <- true) region_x;
      let complement = Graph.copy success in
      Graph.iter_edges
        (fun u v _ ->
          if blocked.(u) || blocked.(v) then Graph.remove_edge complement u v)
        success;
      let best_y = ref None in
      for seed_y = 0 to n - 1 do
        if not blocked.(seed_y) then
          match Kcore_oracle.grow_subgraph complement ~size ~seed:seed_y with
          | None -> ()
          | Some region_y ->
            if List.for_all (fun q -> not blocked.(q)) region_y then begin
              let strength = Kcore_oracle.internal_strength success region_y in
              match !best_y with
              | Some (s, _) when s >= strength -> ()
              | _ -> best_y := Some (strength, region_y)
            end
      done;
      (match !best_y with
      | None -> ()
      | Some (_, region_y) ->
        let key =
          if region_x <= region_y then (region_x, region_y)
          else (region_y, region_x)
        in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          candidates := (region_x, region_y) :: !candidates
        end)
  done;
  List.rev !candidates

let test_candidates_match_reference_growth () =
  let coupling = Topologies.ibm_q20_tokyo in
  let history = Vqc_device.History.generate ~days:52 ~seed:2 ~coupling 20 in
  List.iteri
    (fun day calibration ->
      let device = Device.make ~name:"Q20" ~coupling calibration in
      List.iter
        (fun size ->
          check
            (Printf.sprintf "day %d size %d" day size)
            true
            (Partition.two_copy_candidates device ~size
            = reference_two_copy_candidates device ~size))
        [ 3; 5; 8; 10 ])
    (Vqc_device.History.all history)

let () =
  Alcotest.run "vqc_partition"
    [
      ( "candidates",
        [
          Alcotest.test_case "disjoint and sized" `Quick
            test_two_copy_candidates_are_disjoint_and_sized;
          Alcotest.test_case "impossible size" `Quick
            test_two_copy_candidates_impossible_size;
          Alcotest.test_case "growth matches the reference" `Slow
            test_candidates_match_reference_growth;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "region evaluation" `Quick test_evaluate_on_region;
          Alcotest.test_case "comparison invariants" `Slow
            test_compare_strategies_invariants;
          Alcotest.test_case "wide program" `Quick
            test_compare_strategies_rejects_wide_program;
        ] );
      ( "crossover",
        [
          Alcotest.test_case "single copy wins when lopsided" `Quick
            test_single_copy_wins_on_contrived_machine;
          Alcotest.test_case "two copies win when uniform" `Quick
            test_two_copies_win_on_uniform_machine;
        ] );
    ]

open Vqc_circuit
module Device = Vqc_device.Device
module Calibration = Vqc_device.Calibration

let log_src = Logs.Src.create "vqc.compiler" ~doc:"compilation pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace
module Span = Vqc_obs.Span
module Json = Vqc_obs.Json

let compiles_total = Metrics.counter "mapper.compiles"
let candidates_total = Metrics.counter "mapper.candidates"

type routing =
  | Astar_route of {
      cost_model : Cost.model;
      max_additional_hops : int option;
      bridges : bool;
    }
  | Greedy_route of Cost.model
  | Sabre_route of Cost.model

type policy = {
  label : string;
  allocations : Allocation.policy list;
  routings : routing list;
}

let hop_route =
  Astar_route
    { cost_model = Cost.Hops; max_additional_hops = None; bridges = false }

let reliability_route mah =
  Astar_route
    { cost_model = Cost.Reliability; max_additional_hops = mah; bridges = false }

let bridge_route =
  Astar_route
    { cost_model = Cost.Reliability; max_additional_hops = None; bridges = true }

let baseline =
  {
    label = "baseline";
    allocations = [ Allocation.Locality ];
    routings = [ hop_route ];
  }

let vqm =
  {
    label = "vqm";
    allocations = [ Allocation.Locality ];
    routings = [ reliability_route None; hop_route ];
  }

let vqm_limited mah =
  {
    label = Printf.sprintf "vqm-mah%d" mah;
    allocations = [ Allocation.Locality ];
    routings = [ reliability_route (Some mah); hop_route ];
  }

let vqa_vqm =
  {
    label = "vqa+vqm";
    allocations = [ Allocation.vqa; Allocation.Locality ];
    routings = [ reliability_route None; hop_route ];
  }

let vqa_vqm_limited mah =
  {
    label = Printf.sprintf "vqa+vqm-mah%d" mah;
    allocations = [ Allocation.vqa; Allocation.Locality ];
    routings = [ reliability_route (Some mah); hop_route ];
  }

let vqa_vqm_readout =
  {
    label = "vqa+vqm+readout";
    allocations = [ Allocation.vqa_readout; Allocation.vqa; Allocation.Locality ];
    routings = [ reliability_route None; hop_route ];
  }

let vqm_bridge =
  {
    label = "vqm+bridge";
    allocations = [ Allocation.Locality ];
    routings = [ bridge_route; reliability_route None; hop_route ];
  }

let sabre =
  {
    label = "sabre";
    allocations = [ Allocation.Locality ];
    routings = [ Sabre_route Cost.Hops ];
  }

let noise_sabre =
  {
    label = "noise-sabre";
    allocations = [ Allocation.vqa; Allocation.Locality ];
    routings = [ Sabre_route Cost.Reliability; Sabre_route Cost.Hops ];
  }

let native ~seed =
  {
    label = Printf.sprintf "ibm-native-%d" seed;
    allocations = [ Allocation.Random seed ];
    routings = [ Greedy_route Cost.Hops ];
  }

type compiled = {
  policy : policy;
  physical : Circuit.t;
  initial : Layout.t;
  final : Layout.t;
  stats : Router.stats;
}

(* Post-compile hook: translation validation lives above this library
   (Vqc_check depends on the mapper), so the verifier reaches the
   pipeline through inversion of control.  The hook sees every emitted
   plan and may raise to reject it. *)
(* domain-safe: installed/cleared only before worker domains fan out *)
let plan_check : (Device.t -> Circuit.t -> compiled -> unit) option ref =
  ref None

let set_plan_check f = plan_check := Some f
let clear_plan_check () = plan_check := None

let log_gate_reliability device circuit =
  let calibration = Device.calibration device in
  let log_success p = log (Float.max 1e-12 p) in
  List.fold_left
    (fun acc gate ->
      match gate with
      | Gate.One_qubit (_, q) ->
        acc
        +. log_success (1.0 -. (Calibration.qubit calibration q).Calibration.error_1q)
      | Gate.Cnot { control; target } ->
        acc +. log_success (Device.cnot_success device control target)
      | Gate.Swap (a, b) -> acc +. log_success (Device.swap_success device a b)
      | Gate.Measure { qubit; _ } ->
        acc
        +. log_success
             (1.0 -. (Calibration.qubit calibration qubit).Calibration.error_readout)
      | Gate.Barrier _ -> acc)
    0.0 (Circuit.gates circuit)

let compile ?max_expansions ?(memo = true) device policy circuit =
  if policy.allocations = [] then
    invalid_arg "Compiler.compile: policy has no allocation";
  if policy.routings = [] then
    invalid_arg "Compiler.compile: policy has no routing";
  Span.with_span ~source:"mapper" "mapper.compile"
    ~fields:[ ("policy", Json.String policy.label) ]
  @@ fun () ->
  (* [memo:false] is the reference pipeline for differential tests and
     benchmarks: fresh cost tables, no layer memo, no candidate pruning.
     Both pipelines produce byte-identical plans. *)
  let cost_for model = if memo then Cost.cached device model else Cost.make device model in
  let route_with layout routing =
    match routing with
    | Astar_route { cost_model; max_additional_hops; bridges } ->
      Router.route ?max_additional_hops ?max_expansions ~bridges ~memo
        (cost_for cost_model) layout circuit
    | Greedy_route cost_model -> Router.route_greedy (cost_for cost_model) layout circuit
    | Sabre_route cost_model ->
      Sabre.route ~prune:memo (cost_for cost_model) layout circuit
  in
  let routing_label = function
    | Astar_route { cost_model = Cost.Hops; _ } -> "astar-hops"
    | Astar_route { cost_model = Cost.Reliability; bridges = true; _ } ->
      "astar-reliability+bridges"
    | Astar_route { cost_model = Cost.Reliability; _ } -> "astar-reliability"
    | Greedy_route _ -> "greedy"
    | Sabre_route Cost.Hops -> "sabre-hops"
    | Sabre_route Cost.Reliability -> "sabre-reliability"
  in
  let candidates =
    List.concat_map
      (fun allocation ->
        let layout = Allocation.allocate device circuit allocation in
        List.map
          (fun routing -> (allocation, routing, route_with layout routing))
          policy.routings)
      policy.allocations
  in
  let describe (allocation, routing, routed) =
    Printf.sprintf "%s/%s (%d swaps)"
      (Allocation.policy_name allocation)
      (routing_label routing)
      routed.Router.stats.Router.swaps_inserted
  in
  (* one reliability walk per candidate; the strict [>] keeps the first
     of equally scored candidates *)
  let best_score, best =
    match
      List.map
        (fun ((_, _, routed) as candidate) ->
          (log_gate_reliability device routed.Router.circuit, candidate))
        candidates
    with
    | first :: rest ->
      List.fold_left
        (fun (champion_score, champion) (score, candidate) ->
          Log.debug (fun m ->
              m "%s: candidate %s log-reliability %.3f" policy.label
                (describe candidate) score);
          if score > champion_score then (score, candidate)
          else (champion_score, champion))
        first rest
    | [] -> assert false
  in
  Log.info (fun m ->
      m "%s: chose %s, log-reliability %.3f" policy.label (describe best)
        best_score);
  Metrics.incr compiles_total;
  Metrics.add candidates_total (List.length candidates);
  if Trace.enabled () then begin
    let chosen_allocation, chosen_routing, chosen = best in
    Trace.emit ~source:"mapper" ~event:"compile"
      [
        ("policy", Json.String policy.label);
        ("candidates", Json.Int (List.length candidates));
        ("allocation", Json.String (Allocation.policy_name chosen_allocation));
        ("routing", Json.String (routing_label chosen_routing));
        ("swaps_inserted", Json.Int chosen.Router.stats.Router.swaps_inserted);
      ]
  end;
  let _, _, best = best in
  let result =
    {
      policy;
      physical = best.Router.circuit;
      initial = best.Router.initial;
      final = best.Router.final;
      stats = best.Router.stats;
    }
  in
  (match !plan_check with
  | Some f -> f device circuit result
  | None -> ());
  result

let swap_overhead compiled = compiled.stats.Router.swaps_inserted

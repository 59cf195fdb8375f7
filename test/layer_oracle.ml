(* Reference layer search: the oracle Router.layer_search is held to.
   It runs the generic string-keyed A* ({!Astar}) over functional
   layouts, keys states by their packed program-to-physical bytes, and
   recovers the SWAP path by diffing consecutive layouts.  Slow, but
   obviously faithful to the search's definition. *)

module Gate = Vqc_circuit.Gate
module Device = Vqc_device.Device
module Cost = Vqc_mapper.Cost
module Layout = Vqc_mapper.Layout
module Router = Vqc_mapper.Router

(* One byte per program qubit: the assignment is injective into
   [0, physicals), so for devices under 256 qubits the packed bytes are a
   canonical key.  Larger devices fall back to the textual encoding. *)
let layout_key l =
  let phys = Layout.physical_of_program l in
  let programs = Layout.programs l in
  if Layout.physicals l < 256 then
    String.init programs (fun prog -> Char.chr (phys prog))
  else
    String.concat ""
      (List.init programs (fun prog -> string_of_int (phys prog) ^ ","))

(* The physical pair whose exchange turns [a] into [b], if the two
   layouts differ by exactly one swap. *)
let diff_swap a b =
  if
    Layout.physicals a <> Layout.physicals b
    || Layout.programs a <> Layout.programs b
  then None
  else begin
    let changed =
      List.filter
        (fun phys ->
          Layout.program_of_physical a phys <> Layout.program_of_physical b phys)
        (List.init (Layout.physicals a) Fun.id)
    in
    match changed with
    | [ u; v ] when Layout.equal (Layout.swap_physical a u v) b -> Some (u, v)
    | _ -> None
  end

let physical_pair layout (a, b) =
  (Layout.physical_of_program layout a, Layout.physical_of_program layout b)

let bridge_middle cost u v =
  let device = Cost.device cost in
  if Device.connected device u v then None
  else begin
    let best = ref None in
    List.iter
      (fun m ->
        if Device.connected device m v then begin
          let total = 2.0 *. (Cost.cnot_cost cost u m +. Cost.cnot_cost cost m v) in
          match !best with
          | Some (best_total, _) when best_total <= total -> ()
          | _ -> best := Some (total, m)
        end)
      (Device.neighbors device u);
    !best
  end

type obligation = { operands : int * int; bridgeable : bool }

let layer_obligations ~bridges layer =
  List.filter_map
    (fun gate ->
      match gate with
      | Gate.Cnot { control; target } ->
        Some { operands = (control, target); bridgeable = bridges }
      | Gate.Swap (a, b) -> Some { operands = (a, b); bridgeable = false }
      | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> None)
    layer

let obligation_satisfied cost layout { operands; bridgeable } =
  let u, v = physical_pair layout operands in
  Device.connected (Cost.device cost) u v
  || (bridgeable && bridge_middle cost u v <> None)

let obligation_execution_cost cost layout { operands; bridgeable } =
  let u, v = physical_pair layout operands in
  if Device.connected (Cost.device cost) u v then Cost.cnot_cost cost u v
  else if bridgeable then
    match bridge_middle cost u v with
    | Some (total, _) -> total
    | None -> invalid_arg "Layer_oracle: unsatisfied obligation at execution"
  else invalid_arg "Layer_oracle: unsatisfied obligation at execution"

type search_state = { layout : Layout.t; swap_count : int; executed : bool }

let layer_search cost ~max_additional_hops ~max_expansions ~lookahead
    ~next_pairs layout obligations =
  let couplers = Device.coupling (Cost.device cost) in
  let min_moves l =
    List.fold_left
      (fun acc { operands; bridgeable } ->
        let u, v = physical_pair l operands in
        let direct = Cost.hops_to_adjacency cost u v in
        acc + if bridgeable then max 0 (direct - 1) else direct)
      0 obligations
  in
  let budget =
    match max_additional_hops with
    | None -> max_int
    | Some mah -> min_moves layout + mah
  in
  let satisfied l = List.for_all (obligation_satisfied cost l) obligations in
  let execution_cost l =
    let this_layer =
      List.fold_left
        (fun acc obligation -> acc +. obligation_execution_cost cost l obligation)
        0.0 obligations
    in
    let next_layer =
      List.fold_left
        (fun acc (a, b) ->
          acc
          +. Cost.entangle_cost cost
               (Layout.physical_of_program l a)
               (Layout.physical_of_program l b))
        0.0 next_pairs
    in
    this_layer +. (lookahead *. next_layer)
  in
  let physicals = Device.num_qubits (Cost.device cost) in
  let active l =
    let set = Bytes.make physicals '\000' in
    List.iter
      (fun { operands = a, b; _ } ->
        Bytes.set set (Layout.physical_of_program l a) '\001';
        Bytes.set set (Layout.physical_of_program l b) '\001')
      obligations;
    set
  in
  let successors state =
    if state.executed then []
    else begin
      let active_set = active state.layout in
      let touches u v =
        Bytes.get active_set u = '\001' || Bytes.get active_set v = '\001'
      in
      let swaps =
        List.filter_map
          (fun (u, v) ->
            if not (touches u v) then None
            else begin
              let layout = Layout.swap_physical state.layout u v in
              let next =
                { layout; swap_count = state.swap_count + 1; executed = false }
              in
              if budget <> max_int && next.swap_count + min_moves layout > budget
              then None
              else Some (next, Cost.swap_cost cost u v)
            end)
          couplers
      in
      if satisfied state.layout then
        ({ state with executed = true }, execution_cost state.layout) :: swaps
      else swaps
    end
  in
  let heuristic state =
    if state.executed then 0.0
    else
      List.fold_left
        (fun acc { operands = a, b; _ } ->
          acc
          +. Cost.entangle_cost cost
               (Layout.physical_of_program state.layout a)
               (Layout.physical_of_program state.layout b))
        0.0 obligations
  in
  Astar.search_path_counted ~max_expansions
    {
      Astar.start = { layout; swap_count = 0; executed = false };
      is_goal = (fun state -> state.executed);
      successors;
      heuristic;
      key =
        (fun state ->
          if state.executed then "X" ^ layout_key state.layout
          else layout_key state.layout);
    }

(* Same contract as Router.layer_search. *)
let search ?max_additional_hops ?(max_expansions = 100_000)
    ?(lookahead = Router.default_lookahead) ?(bridges = false) cost layout layer
    ~next_pairs =
  match
    layer_search cost ~max_additional_hops ~max_expansions ~lookahead ~next_pairs
      layout
      (layer_obligations ~bridges layer)
  with
  | None, expanded -> { Router.found = false; swaps = []; expanded }
  | Some (states, _), expanded ->
    let rec replay = function
      | a :: (b :: _ as rest) ->
        if Layout.equal a.layout b.layout then replay rest
        else begin
          match diff_swap a.layout b.layout with
          | Some swap -> swap :: replay rest
          | None -> invalid_arg "Layer_oracle: non-swap A* transition"
        end
      | [ _ ] | [] -> []
    in
    { Router.found = true; swaps = replay states; expanded }

(* Batagelj-Zaversnik O(m) core decomposition: process nodes in increasing
   degree order, repeatedly removing the minimum-degree node; its degree at
   removal time is its core number. *)
let core_numbers g =
  let n = Graph.node_count g in
  let degree = Array.init n (Graph.degree g) in
  let max_degree = Array.fold_left max 0 degree in
  (* bucket sort nodes by current degree *)
  let bin = Array.make (max_degree + 2) 0 in
  Array.iter (fun d -> bin.(d) <- bin.(d) + 1) degree;
  let start = ref 0 in
  for d = 0 to max_degree do
    let count = bin.(d) in
    bin.(d) <- !start;
    start := !start + count
  done;
  let pos = Array.make n 0 in
  let vert = Array.make n 0 in
  Array.iteri
    (fun v d ->
      pos.(v) <- bin.(d);
      vert.(pos.(v)) <- v;
      bin.(d) <- bin.(d) + 1)
    degree;
  for d = max_degree downto 1 do
    bin.(d) <- bin.(d - 1)
  done;
  if max_degree >= 0 then bin.(0) <- 0;
  let core = Array.copy degree in
  for i = 0 to n - 1 do
    let v = vert.(i) in
    let lower_neighbor u =
      if core.(u) > core.(v) then begin
        (* swap u with the first node of its degree bucket, then shrink *)
        let du = core.(u) in
        let pu = pos.(u) in
        let pw = bin.(du) in
        let w = vert.(pw) in
        if u <> w then begin
          pos.(u) <- pw;
          vert.(pu) <- w;
          pos.(w) <- pu;
          vert.(pw) <- u
        end;
        bin.(du) <- bin.(du) + 1;
        core.(u) <- core.(u) - 1
      end
    in
    List.iter lower_neighbor (Graph.neighbor_ids g v)
  done;
  core

let k_core g k =
  let core = core_numbers g in
  let chosen = ref [] in
  for v = Graph.node_count g - 1 downto 0 do
    if core.(v) >= k then chosen := v :: !chosen
  done;
  !chosen

let aggregate_strength g nodes =
  List.fold_left (fun acc v -> acc +. Graph.node_strength g v) 0.0 nodes

let internal_strength g nodes =
  let inside = Array.make (Graph.node_count g) false in
  List.iter (fun v -> inside.(v) <- true) nodes;
  Graph.fold_edges
    (fun u v w acc -> if inside.(u) && inside.(v) then acc +. w else acc)
    g 0.0

(* Flat copy of a graph for the growth loops: neighbours in increasing
   order (the order [Graph.neighbors] gives), edges in [Graph.iter_edges]
   order, and each node's strength computed once.  Every float below is
   summed in the same order as the [Graph]-based definitions above, so
   results are bit-identical to them. *)
type flat = {
  first : int array;  (* neighbours of v: [first.(v) .. first.(v + 1) - 1] *)
  adjacent : int array;
  weight : float array;
  strength : float array;
  edge_u : int array;
  edge_v : int array;
  edge_w : float array;
}

let flatten g =
  let n = Graph.node_count g in
  let first = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    first.(v + 1) <- first.(v) + Graph.degree g v
  done;
  let adjacent = Array.make first.(n) 0 and weight = Array.make first.(n) 0.0 in
  for v = 0 to n - 1 do
    List.iteri
      (fun i (u, w) ->
        adjacent.(first.(v) + i) <- u;
        weight.(first.(v) + i) <- w)
      (Graph.neighbors g v)
  done;
  let edges = ref [] in
  Graph.iter_edges (fun u v w -> edges := (u, v, w) :: !edges) g;
  let edges = Array.of_list (List.rev !edges) in
  {
    first;
    adjacent;
    weight;
    strength = Array.init n (Graph.node_strength g);
    edge_u = Array.map (fun (u, _, _) -> u) edges;
    edge_v = Array.map (fun (_, v, _) -> v) edges;
    edge_w = Array.map (fun (_, _, w) -> w) edges;
  }

(* Grow a connected set from [seed], always adding the frontier node that
   gains the most internal strength (ties broken by full-graph strength,
   then by scan order: chosen nodes newest first, each one's neighbours in
   increasing order).  [inside] must be all-false on entry and marks the
   result on return. *)
let grow_from flat inside size seed =
  inside.(seed) <- true;
  let chosen = Array.make size seed in
  let gain v =
    let acc = ref 0.0 in
    for i = flat.first.(v) to flat.first.(v + 1) - 1 do
      if inside.(flat.adjacent.(i)) then acc := !acc +. flat.weight.(i)
    done;
    !acc
  in
  let rec grow count =
    if count = size then true
    else begin
      let best = ref (-1) and best_gain = ref 0.0 and best_strength = ref 0.0 in
      for c = count - 1 downto 0 do
        let u = chosen.(c) in
        for i = flat.first.(u) to flat.first.(u + 1) - 1 do
          let v = flat.adjacent.(i) in
          if not inside.(v) then begin
            let g = gain v and s = flat.strength.(v) in
            if
              !best < 0 || g > !best_gain || (g = !best_gain && s > !best_strength)
            then begin
              best := v;
              best_gain := g;
              best_strength := s
            end
          end
        done
      done;
      if !best < 0 then false
      else begin
        inside.(!best) <- true;
        chosen.(count) <- !best;
        grow (count + 1)
      end
    end
  in
  if grow 1 then Some (List.sort compare (Array.to_list chosen)) else None

let grow_subgraph g ~size ~seed =
  let n = Graph.node_count g in
  if size < 1 || size > n then
    invalid_arg
      (Printf.sprintf "Kcore.grow_subgraph: size %d not in [1, %d]" size n);
  if seed < 0 || seed >= n then
    invalid_arg (Printf.sprintf "Kcore.grow_subgraph: seed %d out of range" seed);
  grow_from (flatten g) (Array.make n false) size seed

let strongest_subgraph g ~size =
  let n = Graph.node_count g in
  if size < 1 || size > n then
    invalid_arg
      (Printf.sprintf "Kcore.strongest_subgraph: size %d not in [1, %d]" size n);
  let flat = flatten g in
  let inside = Array.make n false in
  let best = ref None in
  for seed = 0 to n - 1 do
    Array.fill inside 0 n false;
    match grow_from flat inside size seed with
    | None -> ()
    | Some nodes ->
      let internal = ref 0.0 in
      for e = 0 to Array.length flat.edge_u - 1 do
        if inside.(flat.edge_u.(e)) && inside.(flat.edge_v.(e)) then
          internal := !internal +. flat.edge_w.(e)
      done;
      let aggregate =
        List.fold_left (fun acc v -> acc +. flat.strength.(v)) 0.0 nodes
      in
      let key = (!internal, aggregate) in
      (match !best with
      | Some (best_key, _) when best_key >= key -> ()
      | _ -> best := Some (key, nodes))
  done;
  match !best with
  | Some (_, nodes) -> nodes
  | None ->
    invalid_arg "Kcore.strongest_subgraph: no connected subset of that size"

open Vqc_circuit
module Pqueue = Vqc_graph.Pqueue
module Device = Vqc_device.Device

let log_src = Logs.Src.create "vqc.router" ~doc:"SWAP-insertion routing"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace
module Span = Vqc_obs.Span
module Json = Vqc_obs.Json

(* Shared with Sabre (same names resolve to the same metrics): every
   routing pass adds its per-circuit totals once, at the end. *)
let routes_total = Metrics.counter "mapper.routes"
let swaps_total = Metrics.counter "mapper.swaps_inserted"
let expansions_total = Metrics.counter "mapper.astar_expansions"
let fallbacks_total = Metrics.counter "mapper.greedy_fallbacks"

type stats = {
  swaps_inserted : int;
  astar_expansions : int;
  greedy_fallbacks : int;
}

type result = {
  circuit : Circuit.t;
  initial : Layout.t;
  final : Layout.t;
  stats : stats;
}

let record_route ~router (stats : stats) =
  Metrics.incr routes_total;
  Metrics.add swaps_total stats.swaps_inserted;
  Metrics.add expansions_total stats.astar_expansions;
  Metrics.add fallbacks_total stats.greedy_fallbacks;
  if Trace.enabled () then
    Trace.emit ~source:"mapper" ~event:"route"
      [
        ("router", Json.String router);
        ("swaps_inserted", Json.Int stats.swaps_inserted);
        ("astar_expansions", Json.Int stats.astar_expansions);
        ("greedy_fallbacks", Json.Int stats.greedy_fallbacks);
      ]

let physical_pair layout (a, b) =
  (Layout.physical_of_program layout a, Layout.physical_of_program layout b)

let executable cost layout pairs =
  let device = Cost.device cost in
  List.for_all
    (fun pair ->
      let u, v = physical_pair layout pair in
      Device.connected device u v)
    pairs

(* ---- bridge execution (extension; see mli) ------------------------- *)

(* Cheapest middle qubit for a bridged CNOT between physical [u] and [v]
   (two CNOTs across each leg), if the pair sits at hop distance 2. *)
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

(* A layer's two-qubit obligations, as parallel arrays (the search's
   inner loops index them per successor): program CNOTs may execute
   bridged (when enabled), program SWAPs always need adjacency. *)
type obligations = {
  first : int array;  (* program operands *)
  second : int array;
  bridgeable : bool array;
}

let layer_obligations ~bridges layer =
  let pairs =
    List.filter_map
      (fun gate ->
        match gate with
        | Gate.Cnot { control; target } -> Some (control, target, bridges)
        | Gate.Swap (a, b) -> Some (a, b, false)
        | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> None)
      layer
    |> Array.of_list
  in
  {
    first = Array.map (fun (a, _, _) -> a) pairs;
    second = Array.map (fun (_, b, _) -> b) pairs;
    bridgeable = Array.map (fun (_, _, bridged) -> bridged) pairs;
  }

(* A pair at hop distance 2 always has a bridge middle, so satisfiability
   is a hop-matrix lookup. *)
let pair_satisfied cost ~bridgeable u v =
  match Cost.hops_to_adjacency cost u v with
  | 0 -> true
  | 1 -> bridgeable
  | _ -> false

(* Whether every obligation is satisfiable with program qubit [p] on
   physical [phys p]. *)
let layer_satisfied cost obligations phys =
  let ok = ref true in
  for i = 0 to Array.length obligations.first - 1 do
    if
      !ok
      && not
           (pair_satisfied cost ~bridgeable:obligations.bridgeable.(i)
              (phys obligations.first.(i))
              (phys obligations.second.(i)))
    then ok := false
  done;
  !ok

(* Cost of executing one satisfied obligation between physical qubits. *)
let pair_execution_cost cost ~bridgeable u v =
  if Device.connected (Cost.device cost) u v then Cost.cnot_cost cost u v
  else if bridgeable then
    match bridge_middle cost u v with
    | Some (total, _) -> total
    | None -> invalid_arg "Router: unsatisfied obligation at execution"
  else invalid_arg "Router: unsatisfied obligation at execution"

(* Mutable emission context shared by both routers. *)
type emitter = {
  mutable layout : Layout.t;
  mutable rev_gates : Gate.t list;
  mutable swaps : int;
}

let emit ctx gate = ctx.rev_gates <- gate :: ctx.rev_gates

let emit_swap ctx u v =
  emit ctx (Gate.Swap (u, v));
  ctx.swaps <- ctx.swaps + 1;
  ctx.layout <- Layout.swap_physical ctx.layout u v

let emit_relabeled ctx gate =
  emit ctx (Gate.relabel (Layout.physical_of_program ctx.layout) gate)

(* Move the occupant of [src] along [path] until it is adjacent to the
   path's last node, i.e. swap across every edge except the final one. *)
let walk_adjacent ctx path =
  let rec step = function
    | a :: (b :: _ :: _ as rest) ->
      emit_swap ctx a b;
      step rest
    | [ _; _ ] | [ _ ] | [] -> ()
  in
  step path

(* Move the occupant of the path's head all the way to its last node. *)
let walk_full ctx path =
  let rec step = function
    | a :: (b :: _ as rest) ->
      emit_swap ctx a b;
      step rest
    | [ _ ] | [] -> ()
  in
  step path

(* One-gate routing with no lookahead: pick the meeting coupler that
   minimizes route + execution cost, drag the first operand onto it, then
   bring the second operand adjacent. *)
let greedy_satisfy ctx cost (a, b) =
  let device = Cost.device cost in
  let adjacent () =
    let pa, pb = physical_pair ctx.layout (a, b) in
    Device.connected device pa pb
  in
  if not (adjacent ()) then begin
    let pa, pb = physical_pair ctx.layout (a, b) in
    let best = ref None in
    let consider anchor other total =
      match !best with
      | Some (best_total, _, _) when best_total <= total -> ()
      | _ -> best := Some (total, anchor, other)
    in
    List.iter
      (fun (x, y) ->
        let execution = Cost.cnot_cost cost x y in
        consider x y
          (Cost.distance cost pa x +. Cost.distance cost pb y +. execution);
        consider y x
          (Cost.distance cost pa y +. Cost.distance cost pb x +. execution))
      (Device.coupling device);
    match !best with
    | None -> invalid_arg "Router: device has no couplers"
    | Some (_, anchor, _) ->
      walk_full ctx (Cost.route cost pa anchor);
      if not (adjacent ()) then begin
        let _, pb = physical_pair ctx.layout (a, b) in
        walk_adjacent ctx (Cost.route cost pb anchor)
      end
  end

(* ---- layered A* routing -------------------------------------------

   States are layouts plus an [executed] flag.  From a layout in which
   every pair is adjacent, an "execute" transition pays the summed CNOT
   execution costs and reaches the terminal state.  This makes the
   search minimize route cost *and* execution-link cost together — under
   the reliability model a free adjacency across a terrible link is not
   a bargain (paper Algorithm 1: D covers the full cost to entangle).

   The search is A* specialised to this state space.  The popped state's
   layout sits in two scratch int arrays; each SWAP successor is applied
   in place, scored, and undone.  States are interned by a 63-bit
   Zobrist hash of the layout (XOR of one random key per
   (program, physical) placement, so a SWAP updates it with four XORs);
   a hash match is confirmed by comparing the stored layout, so a
   collision can never merge two states.  A search node is a state
   index, a parent index, the coupler swapped on the way in, its SWAP
   count and [g]; the SWAP path is read back from the parent chain.

   Results are pinned bit-for-bit to a generic A* over functional
   layouts (the oracle in the test suite), which fixes every tie-break
   below:
   successors are generated execute-first, then SWAPs in coupler order;
   [h] is re-summed over the obligations in order from [0.0]; a push is
   skipped when the state's best [g] is [<=] the new one; a pop is stale
   when the best [g] is [<] the node's; the expansion cap is checked
   before every pop; and an executed state is keyed apart from the same
   unexecuted layout. *)

(* [default_lookahead] discounts the entangle cost of the following
   layer's gates, charged at the execute transition: optimizing one layer
   in isolation happily strands qubits in positions that cost the next
   layer dearly (Zulehner et al. use a lookahead for the same reason). *)
let default_lookahead = 0.5

type layer_outcome = {
  found : bool;
  swaps : (int * int) list;
  expanded : int;
}

(* Scratch space of one [route] call, reused by each of its layer
   searches. *)
type search = {
  cost : Cost.t;
  physicals : int;
  programs : int;
  zobrist : int array;  (* program p on physical q: [p * physicals + q] *)
  phys : int array;  (* current layout: program -> physical *)
  prog : int array;  (* physical -> program, or -1 *)
  active : Bytes.t;  (* physicals holding an obligation operand *)
  frontier : int Pqueue.t;  (* node indices *)
  (* interned states, one per distinct (layout, executed) *)
  mutable slots : int array;  (* open addressing: state index, or -1 *)
  mutable state_meta : int array;  (* per state: hash, executed, slot *)
  mutable state_best : float array;  (* cheapest [g] pushed so far *)
  mutable state_layout : int array;  (* [programs] ints per state *)
  mutable states : int;
  (* search nodes, one per push: state, parent (-1 at the start), the
     coupler index swapped on the way in (-1: start or execute) and the
     SWAP count (for the MAH budget) *)
  mutable node_meta : int array;  (* per node: state, parent, coupler, swaps *)
  mutable node_g : float array;
  mutable nodes : int;
}

(* XORed into the hash of an executed state (whose flag is compared on
   a hash match as well) *)
let executed_key = 0x2d5b_7f3e_19a4_c6d

let search_scratch cost layout =
  let physicals = Layout.physicals layout in
  let programs = Layout.programs layout in
  let rng = Random.State.make [| 0x5eed; physicals; programs |] in
  {
    cost;
    physicals;
    programs;
    zobrist =
      Array.init (programs * physicals) (fun _ ->
          Int64.to_int (Random.State.bits64 rng));
    phys = Array.make programs 0;
    prog = Array.make physicals (-1);
    active = Bytes.make physicals '\000';
    frontier = Pqueue.create ();
    slots = Array.make 1 (-1);
    state_meta = [||];
    state_best = [||];
    state_layout = [||];
    states = 0;
    node_meta = [||];
    node_g = [||];
    nodes = 0;
  }

let resized a length fill =
  let b = Array.make length fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let rehash t capacity =
  let slots = Array.make capacity (-1) in
  let mask = capacity - 1 in
  for s = 0 to t.states - 1 do
    let i = ref (t.state_meta.(3 * s) land mask) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- s;
    t.state_meta.((3 * s) + 2) <- !i
  done;
  t.slots <- slots

(* Room for [extra] more states and nodes (one expansion's pushes), so
   the pushes themselves never grow an array; the state table stays at
   most half full. *)
let reserve t extra =
  let states = t.states + extra and nodes = t.nodes + extra in
  if states > Array.length t.state_best then begin
    t.state_meta <- resized t.state_meta (6 * states) 0;
    t.state_best <- resized t.state_best (2 * states) 0.0;
    t.state_layout <- resized t.state_layout (2 * states * t.programs) 0
  end;
  if nodes > Array.length t.node_g then begin
    t.node_meta <- resized t.node_meta (8 * nodes) 0;
    t.node_g <- resized t.node_g (2 * nodes) 0.0
  end;
  if 2 * states > Array.length t.slots then begin
    let capacity = ref (Array.length t.slots) in
    while 2 * states > !capacity do
      capacity := 2 * !capacity
    done;
    rehash t !capacity
  end

let reset t =
  for s = 0 to t.states - 1 do
    t.slots.(t.state_meta.((3 * s) + 2)) <- -1
  done;
  t.states <- 0;
  t.nodes <- 0;
  Pqueue.clear t.frontier

(* Index of the state (hash, executed, [t.phys]) if interned, else
   [-1 - slot] for the free slot it would take. *)
let find_state t hash executed =
  let mask = Array.length t.slots - 1 and p = t.programs in
  let i = ref (hash land mask) and found = ref max_int in
  while !found = max_int do
    let s = t.slots.(!i) in
    if s < 0 then found := -1 - !i
    else begin
      if t.state_meta.(3 * s) = hash && t.state_meta.((3 * s) + 1) = executed
      then begin
        let base = s * p and k = ref 0 in
        while !k < p && t.state_layout.(base + !k) = t.phys.(!k) do
          incr k
        done;
        if !k = p then found := s
      end;
      i := (!i + 1) land mask
    end
  done;
  !found

(* A* duplicate rule: reach a state again only more cheaply.  [h] is
   evaluated (on [t.phys]) only for nodes that are pushed.  The caller
   has {!reserve}d room. *)
let push t ~hash ~executed ~parent ~coupler ~swaps g h =
  let found = find_state t hash executed in
  if found < 0 || t.state_best.(found) > g then begin
    let state =
      if found >= 0 then found
      else begin
        let s = t.states and slot = -1 - found in
        t.state_meta.(3 * s) <- hash;
        t.state_meta.((3 * s) + 1) <- executed;
        t.state_meta.((3 * s) + 2) <- slot;
        let base = s * t.programs in
        for k = 0 to t.programs - 1 do
          t.state_layout.(base + k) <- t.phys.(k)
        done;
        t.slots.(slot) <- s;
        t.states <- s + 1;
        s
      end
    in
    t.state_best.(state) <- g;
    let node = t.nodes in
    t.node_meta.(4 * node) <- state;
    t.node_meta.((4 * node) + 1) <- parent;
    t.node_meta.((4 * node) + 2) <- coupler;
    t.node_meta.((4 * node) + 3) <- swaps;
    t.node_g.(node) <- g;
    t.nodes <- node + 1;
    Pqueue.push t.frontier (g +. h t) node
  end

let heuristic obligations t =
  let h = ref 0.0 in
  for i = 0 to Array.length obligations.first - 1 do
    h :=
      !h
      +. Cost.entangle_cost t.cost
           t.phys.(obligations.first.(i))
           t.phys.(obligations.second.(i))
  done;
  !h

let min_moves obligations t =
  let moves = ref 0 in
  for i = 0 to Array.length obligations.first - 1 do
    let direct =
      Cost.hops_to_adjacency t.cost
        t.phys.(obligations.first.(i))
        t.phys.(obligations.second.(i))
    in
    moves :=
      !moves + if obligations.bridgeable.(i) then max 0 (direct - 1) else direct
  done;
  !moves

(* Cost of the execute transition: this layer's execution links plus the
   discounted entangle cost of the next layer's pairs. *)
let execution_cost ~lookahead ~next_pairs obligations t =
  let this_layer = ref 0.0 in
  for i = 0 to Array.length obligations.first - 1 do
    this_layer :=
      !this_layer
      +. pair_execution_cost t.cost ~bridgeable:obligations.bridgeable.(i)
           t.phys.(obligations.first.(i))
           t.phys.(obligations.second.(i))
  done;
  let next_layer =
    List.fold_left
      (fun acc (a, b) -> acc +. Cost.entangle_cost t.cost t.phys.(a) t.phys.(b))
      0.0 next_pairs
  in
  !this_layer +. (lookahead *. next_layer)

(* Loops rather than [Array.blit]: these int arrays live in the major
   heap, where a blit writes through the GC barrier element by element. *)
let load_layout t state =
  let base = state * t.programs in
  Array.fill t.prog 0 t.physicals (-1);
  for p = 0 to t.programs - 1 do
    let q = t.state_layout.(base + p) in
    t.phys.(p) <- q;
    t.prog.(q) <- p
  done

let zobrist_hash t =
  let h = ref 0 in
  Array.iteri
    (fun p q -> h := !h lxor t.zobrist.((p * t.physicals) + q))
    t.phys;
  !h

let path t goal =
  let couplers = Cost.couplers t.cost in
  let rec unwind node acc =
    if node < 0 then acc
    else begin
      let coupler = t.node_meta.((4 * node) + 2) in
      let acc = if coupler < 0 then acc else couplers.(coupler) :: acc in
      unwind t.node_meta.((4 * node) + 1) acc
    end
  in
  unwind goal []

let run_search t ~max_additional_hops ~max_expansions ~lookahead ~next_pairs
    layout obligations =
  reset t;
  Array.iteri
    (fun p _ -> t.phys.(p) <- Layout.physical_of_program layout p)
    t.phys;
  let budget =
    match max_additional_hops with
    | None -> max_int
    | Some mah -> min_moves obligations t + mah
  in
  let couplers = Cost.couplers t.cost in
  let swap_costs = Cost.coupler_swap_costs t.cost in
  let z = t.zobrist and n = t.physicals in
  let heuristic = heuristic obligations in
  let no_heuristic _ = 0.0 in
  reserve t 1;
  push t ~hash:(zobrist_hash t) ~executed:0 ~parent:(-1) ~coupler:(-1)
    ~swaps:0 0.0 heuristic;
  let expand node =
    let state = t.node_meta.(4 * node) in
    let swaps = t.node_meta.((4 * node) + 3) in
    let g = t.node_g.(node) in
    let hash = t.state_meta.(3 * state) in
    load_layout t state;
    reserve t (Array.length couplers + 1);
    if layer_satisfied t.cost obligations (Array.get t.phys) then
      push t ~hash:(hash lxor executed_key) ~executed:1 ~parent:node
        ~coupler:(-1) ~swaps
        (g +. execution_cost ~lookahead ~next_pairs obligations t)
        no_heuristic;
    Bytes.fill t.active 0 n '\000';
    let mark p = Bytes.set t.active t.phys.(p) '\001' in
    Array.iter mark obligations.first;
    Array.iter mark obligations.second;
    let active q = Bytes.get t.active q = '\001' in
    Array.iteri
      (fun c (u, v) ->
        if active u || active v then begin
          let pu = t.prog.(u) and pv = t.prog.(v) in
          let next = ref hash in
          if pu >= 0 then begin
            t.phys.(pu) <- v;
            next := !next lxor z.((pu * n) + u) lxor z.((pu * n) + v)
          end;
          if pv >= 0 then begin
            t.phys.(pv) <- u;
            next := !next lxor z.((pv * n) + v) lxor z.((pv * n) + u)
          end;
          (* with no MAH budget the bound is [max_int] and the prune can
             never fire — skip the [min_moves] recomputation *)
          if budget = max_int || swaps + 1 + min_moves obligations t <= budget
          then
            push t ~hash:!next ~executed:0 ~parent:node ~coupler:c
              ~swaps:(swaps + 1)
              (g +. swap_costs.(c))
              heuristic;
          if pu >= 0 then t.phys.(pu) <- u;
          if pv >= 0 then t.phys.(pv) <- v
        end)
      couplers
  in
  let rec drain expanded =
    if expanded >= max_expansions then { found = false; swaps = []; expanded }
    else
      match Pqueue.pop t.frontier with
      | None -> { found = false; swaps = []; expanded }
      | Some (_, node) ->
        let state = t.node_meta.(4 * node) in
        if t.state_best.(state) < t.node_g.(node) then drain expanded
        else if t.state_meta.((3 * state) + 1) = 1 then
          { found = true; swaps = path t node; expanded }
        else begin
          expand node;
          drain (expanded + 1)
        end
  in
  drain 0

let layer_search ?max_additional_hops ?(max_expansions = 100_000)
    ?(lookahead = default_lookahead) ?(bridges = false) cost layout layer
    ~next_pairs =
  run_search (search_scratch cost layout) ~max_additional_hops ~max_expansions
    ~lookahead ~next_pairs layout
    (layer_obligations ~bridges layer)

(* ---- layer-search memo ---------------------------------------------

   The catalog x policy matrix re-routes the same circuits under
   overlapping policies: vqm's (layout, routing) candidates are a subset
   of vqa+vqm's, themselves a subset of vqa+vqm+readout's, and the
   hop-cost route is shared by five policies.  A layer search depends
   only on (cost table, current layout, the layer's obligations, the
   next layer's pairs, search parameters) — all captured in the key
   below — so its outcome can be replayed: emitting the recorded swap
   sequence reproduces the gates, layout, stats, and traces of
   re-running the search byte for byte.  Keying on {!Cost.id} (unique
   per table) means a hit can only replay a search that would have been
   identical; tables from plain [Cost.make] carry fresh ids and simply
   never hit — sharing comes from {!Cost.cached}.

   The table is process-wide (compiles run concurrently under the
   service pool, hence the mutex) and bounded: on overflow it is
   dropped wholesale — it is a memo, not a correctness structure. *)

let memo_capacity = 32_768
let memo_lock = Mutex.create ()
(* guarded by memo_lock *)
let memo_table : (string, layer_outcome) Hashtbl.t = Hashtbl.create 1024
let memo_hits = Metrics.counter "mapper.layer_memo_hits"
let memo_misses = Metrics.counter "mapper.layer_memo_misses"

let memo_clear () =
  Mutex.lock memo_lock;
  Hashtbl.reset memo_table;
  Mutex.unlock memo_lock

let memo_find key =
  Mutex.lock memo_lock;
  let entry = Hashtbl.find_opt memo_table key in
  Mutex.unlock memo_lock;
  (match entry with
  | Some _ -> Metrics.incr memo_hits
  | None -> Metrics.incr memo_misses);
  entry

let memo_store key entry =
  Mutex.lock memo_lock;
  if Hashtbl.length memo_table >= memo_capacity then Hashtbl.reset memo_table;
  Hashtbl.replace memo_table key entry;
  Mutex.unlock memo_lock

let memo_key cost ~max_additional_hops ~max_expansions ~lookahead ~next_pairs
    layout obligations =
  let b = Buffer.create 96 in
  let add_int i = Buffer.add_string b (string_of_int i) in
  add_int (Cost.id cost);
  (match max_additional_hops with
  | None -> Buffer.add_string b "/*"
  | Some mah ->
    Buffer.add_char b '/';
    add_int mah);
  Buffer.add_char b '/';
  add_int max_expansions;
  Buffer.add_char b '/';
  Buffer.add_string b (Int64.to_string (Int64.bits_of_float lookahead));
  Buffer.add_char b '/';
  (* the layout as one byte per program qubit below 256 physicals,
     prefixed with the program count so the concatenation stays
     unambiguous *)
  add_int (Layout.programs layout);
  Buffer.add_char b ':';
  for p = 0 to Layout.programs layout - 1 do
    let phys = Layout.physical_of_program layout p in
    if Layout.physicals layout < 256 then Buffer.add_char b (Char.chr phys)
    else begin
      add_int phys;
      Buffer.add_char b ','
    end
  done;
  Array.iteri
    (fun i a ->
      Buffer.add_char b (if obligations.bridgeable.(i) then 'B' else 'g');
      add_int a;
      Buffer.add_char b ',';
      add_int obligations.second.(i))
    obligations.first;
  Buffer.add_char b '/';
  List.iter
    (fun (x, y) ->
      add_int x;
      Buffer.add_char b ',';
      add_int y;
      Buffer.add_char b ';')
    next_pairs;
  Buffer.contents b

let route ?max_additional_hops ?(max_expansions = 100_000)
    ?(lookahead = default_lookahead) ?(bridges = false) ?(memo = true) cost
    layout circuit =
  Span.with_span ~source:"mapper" "mapper.route" @@ fun () ->
  let device = Cost.device cost in
  let ctx = { layout; rev_gates = []; swaps = 0 } in
  let expansions = ref 0 in
  let fallbacks = ref 0 in
  let scratch = lazy (search_scratch cost layout) in
  let search obligations next_pairs =
    run_search (Lazy.force scratch) ~max_additional_hops ~max_expansions
      ~lookahead ~next_pairs ctx.layout obligations
  in
  (* Emits a solved layer's swaps into [ctx].  A capped search charges
     no expansions (its layer is counted in [greedy_fallbacks]); a memo
     replay charges what the original search did, so stats are
     byte-identical with the memo on or off. *)
  let apply { found; swaps; expanded } =
    if found then begin
      expansions := !expansions + expanded;
      List.iter (fun (u, v) -> emit_swap ctx u v) swaps
    end;
    found
  in
  (* Returns true when every obligation of the layer is satisfiable. *)
  let solve_layer obligations next_pairs =
    layer_satisfied cost obligations (Layout.physical_of_program ctx.layout)
    ||
    if not memo then apply (search obligations next_pairs)
    else begin
      let key =
        memo_key cost ~max_additional_hops ~max_expansions ~lookahead
          ~next_pairs ctx.layout obligations
      in
      match memo_find key with
      | Some outcome -> apply outcome
      | None ->
        let outcome = search obligations next_pairs in
        memo_store key outcome;
        apply outcome
    end
  in
  (* Emit a CNOT: directly when adjacent, else as a bridge through the
     cheapest middle (guaranteed to exist once the layer is solved). *)
  let emit_cnot control target =
    let u = Layout.physical_of_program ctx.layout control in
    let v = Layout.physical_of_program ctx.layout target in
    if Device.connected device u v then
      emit ctx (Gate.Cnot { control = u; target = v })
    else begin
      match bridge_middle cost u v with
      | Some (_, m) ->
        emit ctx (Gate.Cnot { control = u; target = m });
        emit ctx (Gate.Cnot { control = m; target = v });
        emit ctx (Gate.Cnot { control = u; target = m });
        emit ctx (Gate.Cnot { control = m; target = v })
      | None -> invalid_arg "Router: no bridge middle at emission"
    end
  in
  let route_layer layer next_layer =
    let next_pairs =
      match next_layer with
      | Some l -> Layers.two_qubit_pairs l
      | None -> []
    in
    if solve_layer (layer_obligations ~bridges layer) next_pairs then
      List.iter
        (fun gate ->
          match gate with
          | Gate.Cnot { control; target } -> emit_cnot control target
          | Gate.Swap _ | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _
            ->
            emit_relabeled ctx gate)
        layer
    else begin
      (* Expansion cap hit (or MAH budget unreachable): serialize the
         layer — its gates are independent, so satisfying and emitting
         them one at a time along cheapest routes is always sound. *)
      incr fallbacks;
      Log.warn (fun m ->
          m "layer search exhausted (%d gates); serializing the layer"
            (List.length layer));
      let place gate =
        (match gate with
        | Gate.Cnot { control; target } ->
          greedy_satisfy ctx cost (control, target)
        | Gate.Swap (a, b) -> greedy_satisfy ctx cost (a, b)
        | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> ());
        emit_relabeled ctx gate
      in
      List.iter place layer
    end
  in
  let rec walk_layers = function
    | [] -> ()
    | [ last ] -> route_layer last None
    | layer :: (next :: _ as rest) ->
      route_layer layer (Some next);
      walk_layers rest
  in
  walk_layers (Layers.partition circuit);
  let stats =
    {
      swaps_inserted = ctx.swaps;
      astar_expansions = !expansions;
      greedy_fallbacks = !fallbacks;
    }
  in
  record_route ~router:"astar" stats;
  {
    circuit =
      Circuit.of_gates
        ~cbits:(Circuit.num_cbits circuit)
        (Device.num_qubits device)
        (List.rev ctx.rev_gates);
    initial = layout;
    final = ctx.layout;
    stats;
  }

let route_greedy cost layout circuit =
  Span.with_span ~source:"mapper" "mapper.route_greedy" @@ fun () ->
  let device = Cost.device cost in
  let ctx = { layout; rev_gates = []; swaps = 0 } in
  let place gate =
    (match gate with
    | Gate.Cnot { control; target } -> greedy_satisfy ctx cost (control, target)
    | Gate.Swap (a, b) -> greedy_satisfy ctx cost (a, b)
    | Gate.One_qubit _ | Gate.Measure _ | Gate.Barrier _ -> ());
    emit_relabeled ctx gate
  in
  List.iter place (Circuit.gates circuit);
  let stats =
    { swaps_inserted = ctx.swaps; astar_expansions = 0; greedy_fallbacks = 0 }
  in
  record_route ~router:"greedy" stats;
  {
    circuit =
      Circuit.of_gates
        ~cbits:(Circuit.num_cbits circuit)
        (Device.num_qubits device)
        (List.rev ctx.rev_gates);
    initial = layout;
    final = ctx.layout;
    stats;
  }

(** SWAP-insertion routing (paper Sections 4.5 step 5 and 5.3 step 5).

    [route] is the layered A* scheme of Zulehner et al.: for each layer
    whose two-qubit gates are not all executable under the current layout,
    search for the cheapest SWAP sequence (by the given {!Cost.t} model)
    that makes the whole layer executable.  With [Cost.Hops] this is the
    variation-unaware baseline; with [Cost.Reliability] it is VQM.  The
    optional [max_additional_hops] budget is the paper's MAH knob: the
    layer may use at most [baseline minimum + MAH] SWAPs.

    [route_greedy] is the naive per-gate router used to model the IBM
    native compiler: each unexecutable CNOT drags its control along a
    shortest route until adjacent, with no lookahead. *)

open Vqc_circuit

type stats = {
  swaps_inserted : int;
  astar_expansions : int;
  greedy_fallbacks : int;
      (** layers solved greedily after the A* expansion cap *)
}

type result = {
  circuit : Circuit.t;
      (** physical circuit over the device's qubits, SWAPs included *)
  initial : Layout.t;
  final : Layout.t;
  stats : stats;
}

val default_lookahead : float
(** Weight of the next layer's entangle cost in each layer's objective
    (0.5) — per-layer optimization with no lookahead strands qubits in
    positions that cost following layers dearly. *)

val route :
  ?max_additional_hops:int ->
  ?max_expansions:int ->
  ?lookahead:float ->
  ?bridges:bool ->
  ?memo:bool ->
  Cost.t ->
  Layout.t ->
  Circuit.t ->
  result
(** Route a program circuit from an initial layout.  [max_expansions]
    (default 100_000) caps each layer's A* before the layer is serialized
    and routed gate-by-gate.

    [bridges] (default false) extends the execute step beyond the paper:
    a CNOT whose operands sit at hop distance 2 may execute as a bridge —
    [cx a b; cx b c; cx a b; cx b c] through a middle qubit [b] — paying
    four CNOTs but displacing nobody, where a SWAP-then-CNOT pays the
    same four CNOTs and scrambles the layout for later layers.  The
    search weighs both options by reliability.  Program SWAP gates still
    require adjacency.

    [memo] (default true) replays layer searches from a process-wide
    memo instead of re-running A* when an identical subproblem — same
    cost table (by {!Cost.id}), layout, obligations, lookahead pairs and
    search parameters — was already solved.  A replay emits the same
    swaps and charges the same [astar_expansions], so results are
    byte-identical with the memo on or off ([memo:false] exists for the
    differential tests and benchmarks, not for different results). *)

type layer_outcome = {
  found : bool;  (** [false] when the expansion cap or the MAH budget stopped it *)
  swaps : (int * int) list;
      (** physical SWAPs [(u, v)], [u < v], in emission order ([[]] when
          not found) *)
  expanded : int;  (** states expanded (popped and not stale) *)
}

val layer_search :
  ?max_additional_hops:int ->
  ?max_expansions:int ->
  ?lookahead:float ->
  ?bridges:bool ->
  Cost.t ->
  Layout.t ->
  Gate.t list ->
  next_pairs:(int * int) list ->
  layer_outcome
(** The A* search {!route} runs on one layer: the cheapest SWAP
    sequence, followed by the layer's execution (plus [lookahead] times
    the entangle cost of the program pairs [next_pairs]), that makes
    every two-qubit gate of the layer executable from the given layout.
    Optional arguments default as in {!route}.  Exposed for the
    differential tests; {!route} is the entry point for routing. *)

val memo_clear : unit -> unit
(** Drop every memoized layer search (a fresh-process state for
    benchmarks; never needed for correctness). *)

val route_greedy : Cost.t -> Layout.t -> Circuit.t -> result

val record_route : router:string -> stats -> unit
(** Feed one finished routing pass into the {!Vqc_obs} registry
    ([mapper.routes], [mapper.swaps_inserted], [mapper.astar_expansions],
    [mapper.greedy_fallbacks]) and, when a trace sink is attached, emit a
    [source = "mapper"] / [event = "route"] event tagged with [router]
    ("astar", "greedy", "sabre").  Called by every router in this
    library; exposed so external routers can report through the same
    channel.  Purely observational — never affects routing results. *)

val executable : Cost.t -> Layout.t -> (int * int) list -> bool
(** Whether every (program) pair is mapped to coupled physical qubits. *)

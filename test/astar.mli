(** Generic A* search over an abstract state space: the reference the
    mapper's specialised layer search ({!Vqc_mapper.Router.layer_search})
    is held to.

    The mapper's SWAP search (paper Sections 4.5 and 5.3) explores
    permutations of the program-to-physical mapping; each state is one such
    mapping and each move is a SWAP.  This module provides the search
    skeleton; {!Layer_oracle} supplies successors, goal test and
    heuristic. *)

type 'state problem = {
  start : 'state;
  is_goal : 'state -> bool;
  successors : 'state -> ('state * float) list;
      (** [(next, cost)] moves; costs must be non-negative. *)
  heuristic : 'state -> float;
      (** Admissible lower bound on remaining cost (0 at goals). *)
  key : 'state -> string;
      (** Canonical serialization used to detect revisits. *)
}

type 'state outcome = {
  goal : 'state;
  cost : float;  (** Total path cost from [start] to [goal]. *)
  expanded : int;  (** Number of states popped from the frontier. *)
}

val search : ?max_expansions:int -> 'state problem -> 'state outcome option
(** Best-first A* with duplicate detection.  Returns [None] when the space
    is exhausted or [max_expansions] (default 200_000) states were popped
    without reaching a goal. *)

val search_path :
  ?max_expansions:int ->
  'state problem ->
  ('state list * float * int) option
(** Like {!search}, additionally reconstructing the state sequence from
    start to goal (inclusive).  Returns [(states, cost, expanded)]. *)

val search_path_counted :
  ?max_expansions:int ->
  'state problem ->
  ('state list * float) option * int
(** Like {!search_path}, also reporting the number of expansions when no
    goal was reached (the cap, or the size of an exhausted space). *)

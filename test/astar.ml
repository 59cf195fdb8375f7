module Pqueue = Vqc_graph.Pqueue

type 'state problem = {
  start : 'state;
  is_goal : 'state -> bool;
  successors : 'state -> ('state * float) list;
  heuristic : 'state -> float;
  key : 'state -> string;
}

type 'state outcome = { goal : 'state; cost : float; expanded : int }

type 'state node = {
  state : 'state;
  g_cost : float;
  key : string;  (* problem.key state, computed once at push time *)
  parent : 'state node option;
}

let default_max_expansions = 200_000

let run ?(max_expansions = default_max_expansions) problem =
  let frontier = Pqueue.create () in
  let best_cost : (string, float) Hashtbl.t = Hashtbl.create 1024 in
  let push node =
    match Hashtbl.find_opt best_cost node.key with
    | Some c when c <= node.g_cost -> ()
    | _ ->
      Hashtbl.replace best_cost node.key node.g_cost;
      Pqueue.push frontier (node.g_cost +. problem.heuristic node.state) node
  in
  push
    {
      state = problem.start;
      g_cost = 0.0;
      key = problem.key problem.start;
      parent = None;
    };
  let expanded = ref 0 in
  let rec drain () =
    if !expanded >= max_expansions then None
    else
      match Pqueue.pop frontier with
      | None -> None
      | Some (_, node) ->
        (* skip stale queue entries superseded by a cheaper path *)
        let stale =
          match Hashtbl.find_opt best_cost node.key with
          | Some c -> c < node.g_cost
          | None -> false
        in
        if stale then drain ()
        else if problem.is_goal node.state then Some node
        else begin
          incr expanded;
          let expand (next, cost) =
            if cost < 0.0 then invalid_arg "Astar: negative move cost";
            push
              {
                state = next;
                g_cost = node.g_cost +. cost;
                key = problem.key next;
                parent = Some node;
              }
          in
          List.iter expand (problem.successors node.state);
          drain ()
        end
  in
  (* bind before pairing: tuple components evaluate right-to-left, so
     [(drain (), !expanded)] would read the counter before the search *)
  let outcome = drain () in
  (outcome, !expanded)

let search_path_counted ?max_expansions problem =
  match run ?max_expansions problem with
  | None, expanded -> (None, expanded)
  | Some node, expanded ->
    let rec unwind node acc =
      let acc = node.state :: acc in
      match node.parent with None -> acc | Some p -> unwind p acc
    in
    (Some (unwind node [], node.g_cost), expanded)

let search ?max_expansions problem =
  match run ?max_expansions problem with
  | None, _ -> None
  | Some node, expanded -> Some { goal = node.state; cost = node.g_cost; expanded }

let search_path ?max_expansions problem =
  match search_path_counted ?max_expansions problem with
  | None, _ -> None
  | Some (states, cost), expanded -> Some (states, cost, expanded)

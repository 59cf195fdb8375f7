module Metrics = Vqc_obs.Metrics

type key = {
  circuit_fp : string;
  calibration_fp : string;
  policy : string;
}

let key_to_string k =
  Printf.sprintf "%s/%s/%s" k.circuit_fp k.calibration_fp k.policy

(* Per-instance metric handles: the session-facing cache keeps today's
   service.cache.* names; other instances (e.g. the shared cross-client
   plan store of the TCP server) register their own family so their
   temperature is observable separately. *)
type metrics = {
  hits : Metrics.counter;
  misses : Metrics.counter;
  evictions : Metrics.counter;
  invalidated : Metrics.counter;
  retained : Metrics.counter;
  entries_gauge : Metrics.gauge;
}

let default_metrics_prefix = "service.cache"

let metrics_for prefix =
  {
    hits = Metrics.counter (prefix ^ ".hits");
    misses = Metrics.counter (prefix ^ ".misses");
    evictions = Metrics.counter (prefix ^ ".evictions");
    invalidated = Metrics.counter (prefix ^ ".invalidated");
    retained = Metrics.counter (prefix ^ ".retained");
    entries_gauge = Metrics.gauge (prefix ^ ".entries");
  }

(* Classic intrusive doubly-linked LRU list over a hash table: [head]
   is the most recently used entry, [tail] the eviction candidate. *)
type 'a node = {
  mutable node_key : key;  (** mutable so {!migrate} can re-key in place *)
  mutable value : 'a;
  mutable prev : 'a node option;  (** toward head (more recent) *)
  mutable next : 'a node option;  (** toward tail (less recent) *)
}

type 'a t = {
  capacity : int;
  table : (key, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  lock : Mutex.t;
  m : metrics;
}

let create ?(metrics_prefix = default_metrics_prefix) ~capacity () =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Plan_cache.create: capacity must be >= 1 (got %d)"
         capacity);
  {
    capacity;
    table = Hashtbl.create (min capacity 64);
    head = None;
    tail = None;
    lock = Mutex.create ();
    m = metrics_for metrics_prefix;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> Hashtbl.length t.table)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.prev <- None;
  node.next <- t.head;
  (match t.head with Some h -> h.prev <- Some node | None -> ());
  t.head <- Some node;
  if t.tail = None then t.tail <- Some node

let remove t node =
  unlink t node;
  Hashtbl.remove t.table node.node_key

(* The caller holds the lock. *)
let set_entries_gauge t =
  Metrics.set t.m.entries_gauge (float_of_int (Hashtbl.length t.table))

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        Metrics.incr t.m.hits;
        unlink t node;
        push_front t node;
        Some node.value
      | None ->
        Metrics.incr t.m.misses;
        None)

let insert t key value =
  locked t (fun () ->
      (match Hashtbl.find_opt t.table key with
      | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
      | None ->
        (if Hashtbl.length t.table >= t.capacity then
           match t.tail with
           | None -> ()
           | Some victim ->
             remove t victim;
             Metrics.incr t.m.evictions);
        let node = { node_key = key; value; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node);
      set_entries_gauge t)

(* Walk the LRU list head -> tail: most recent first, a deterministic
   function of the preceding request stream (unlike Hashtbl fold order,
   which depends on bucket layout). *)
let nodes_in_lru_order t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node :: acc) node.next
  in
  walk [] t.head

let entries t =
  locked t (fun () ->
      List.map (fun node -> (node.node_key, node.value)) (nodes_in_lru_order t))

type 'a migration = {
  kept : int;
  dropped : (key * 'a) list;
}

let migrate t ~decide =
  locked t (fun () ->
      let kept = ref 0 in
      let dropped = ref [] in
      List.iter
        (fun node ->
          match decide node.node_key node.value with
          | Some key when key = node.node_key -> incr kept
          | Some key ->
            (* an occupied target already holds a (fresher) plan: the
               logical entry survives, this stale copy goes *)
            if Hashtbl.mem t.table key then remove t node
            else begin
              Hashtbl.remove t.table node.node_key;
              node.node_key <- key;
              Hashtbl.replace t.table key node
            end;
            incr kept
          | None ->
            remove t node;
            dropped := (node.node_key, node.value) :: !dropped)
        (nodes_in_lru_order t);
      let dropped = List.rev !dropped in
      Metrics.add t.m.invalidated (List.length dropped);
      Metrics.add t.m.retained !kept;
      set_entries_gauge t;
      { kept = !kept; dropped })

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

(* One lock-striped segment: exactly the single cache of old, so a
   1-segment instance behaves byte-identically to the pre-sharding
   implementation. *)
type 'a segment = {
  seg_capacity : int;
  table : (key, 'a node) Hashtbl.t;
  mutable head : 'a node option;
  mutable tail : 'a node option;
  lock : Mutex.t;
}

type 'a t = {
  segments : 'a segment array;
  m : metrics;
}

(* FNV-1a over the rendered key, reduced mod the segment count: a pure
   function of the fingerprints, so the segment a key lands in is
   deterministic across runs and processes (never Hashtbl.hash, whose
   contract does not promise stability). *)
let fnv_offset_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let segment_index t key =
  let n = Array.length t.segments in
  if n = 1 then 0
  else begin
    let digest = ref fnv_offset_basis in
    let feed s =
      String.iter
        (fun c ->
          digest := Int64.logxor !digest (Int64.of_int (Char.code c));
          digest := Int64.mul !digest fnv_prime)
        s
    in
    feed key.circuit_fp;
    feed key.calibration_fp;
    feed key.policy;
    Int64.to_int (Int64.unsigned_rem !digest (Int64.of_int n))
  end

let segment_of t key = t.segments.(segment_index t key)

let make_segment seg_capacity =
  {
    seg_capacity;
    table = Hashtbl.create (min (max seg_capacity 1) 64);
    head = None;
    tail = None;
    lock = Mutex.create ();
  }

let create ?(shards = 1) ?(metrics_prefix = default_metrics_prefix) ~capacity ()
    =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Plan_cache.create: capacity must be >= 1 (got %d)"
         capacity);
  if shards < 1 then
    invalid_arg
      (Printf.sprintf "Plan_cache.create: shards must be >= 1 (got %d)" shards);
  if shards > capacity then
    invalid_arg
      (Printf.sprintf
         "Plan_cache.create: shards (%d) must not exceed capacity (%d)" shards
         capacity);
  (* spread the capacity as evenly as possible; the first
     [capacity mod shards] segments hold one extra entry *)
  let base = capacity / shards and extra = capacity mod shards in
  {
    segments =
      Array.init shards (fun i ->
          make_segment (base + if i < extra then 1 else 0));
    m = metrics_for metrics_prefix;
  }

let locked seg f =
  Mutex.lock seg.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock seg.lock) f

let length t =
  Array.fold_left
    (fun acc seg -> acc + locked seg (fun () -> Hashtbl.length seg.table))
    0 t.segments

let unlink seg node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> seg.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> seg.tail <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front seg node =
  node.prev <- None;
  node.next <- seg.head;
  (match seg.head with Some h -> h.prev <- Some node | None -> ());
  seg.head <- Some node;
  if seg.tail = None then seg.tail <- Some node

let set_entries_gauge t =
  Metrics.set t.m.entries_gauge (float_of_int (length t))

let find t key =
  let seg = segment_of t key in
  locked seg (fun () ->
      match Hashtbl.find_opt seg.table key with
      | Some node ->
        Metrics.incr t.m.hits;
        unlink seg node;
        push_front seg node;
        Some node.value
      | None ->
        Metrics.incr t.m.misses;
        None)

let evict_tail t seg =
  match seg.tail with
  | None -> ()
  | Some node ->
    unlink seg node;
    Hashtbl.remove seg.table node.node_key;
    Metrics.incr t.m.evictions

(* Core insertion; the caller must hold [seg]'s lock (the mutexes are
   not reentrant). *)
let insert_unlocked t seg key value =
  match Hashtbl.find_opt seg.table key with
  | Some node ->
    node.value <- value;
    unlink seg node;
    push_front seg node
  | None ->
    if Hashtbl.length seg.table >= seg.seg_capacity then evict_tail t seg;
    let node = { node_key = key; value; prev = None; next = None } in
    Hashtbl.replace seg.table key node;
    push_front seg node

let insert t key value =
  let seg = segment_of t key in
  locked seg (fun () -> insert_unlocked t seg key value);
  set_entries_gauge t

let retain t keep =
  let dropped =
    Array.fold_left
      (fun acc seg ->
        locked seg (fun () ->
            let victims =
              Hashtbl.fold
                (fun key node vs -> if keep key then vs else node :: vs)
                seg.table []
            in
            List.iter
              (fun node ->
                unlink seg node;
                Hashtbl.remove seg.table node.node_key)
              victims;
            acc + List.length victims))
      0 t.segments
  in
  Metrics.add t.m.invalidated dropped;
  Metrics.add t.m.retained (length t);
  set_entries_gauge t;
  dropped

(* Walk one segment's LRU list head -> tail: most recent first, a
   deterministic function of the preceding request stream (unlike
   Hashtbl fold order, which depends on bucket layout). *)
let nodes_in_lru_order seg =
  let rec walk acc = function
    | None -> List.rev acc
    | Some node -> walk (node :: acc) node.next
  in
  walk [] seg.head

let entries t =
  Array.to_list t.segments
  |> List.concat_map (fun seg ->
         locked seg (fun () ->
             List.map
               (fun node -> (node.node_key, node.value))
               (nodes_in_lru_order seg)))

type 'a migration = {
  kept : int;
  dropped : (key * 'a) list;
}

let migrate t ~decide =
  let kept = ref 0 in
  let dropped = ref [] in
  (* a re-key can move an entry to a different segment; those moves are
     collected here and applied after the owning segment's lock is
     released, so no two segment locks are ever held at once *)
  let emigrants = ref [] in
  Array.iteri
    (fun seg_index seg ->
      locked seg (fun () ->
          List.iter
            (fun node ->
              match decide node.node_key node.value with
              | Some key when key = node.node_key -> incr kept
              | Some key when segment_index t key = seg_index ->
                if Hashtbl.mem seg.table key then begin
                  (* the target key already holds a (fresher) plan: the
                     logical entry survives, this stale copy goes *)
                  unlink seg node;
                  Hashtbl.remove seg.table node.node_key;
                  incr kept
                end
                else begin
                  Hashtbl.remove seg.table node.node_key;
                  node.node_key <- key;
                  Hashtbl.replace seg.table key node;
                  incr kept
                end
              | Some key ->
                unlink seg node;
                Hashtbl.remove seg.table node.node_key;
                emigrants := (key, node.value) :: !emigrants
              | None ->
                unlink seg node;
                Hashtbl.remove seg.table node.node_key;
                dropped := (node.node_key, node.value) :: !dropped)
            (nodes_in_lru_order seg)))
    t.segments;
  List.iter
    (fun (key, value) ->
      let seg = segment_of t key in
      let survives =
        locked seg (fun () ->
            if Hashtbl.mem seg.table key then false
            else begin
              insert_unlocked t seg key value;
              true
            end)
      in
      (* occupied target: the logical plan survives as the fresher copy *)
      ignore survives;
      incr kept)
    (List.rev !emigrants);
  let dropped = List.rev !dropped in
  Metrics.add t.m.invalidated (List.length dropped);
  Metrics.add t.m.retained !kept;
  set_entries_gauge t;
  { kept = !kept; dropped }

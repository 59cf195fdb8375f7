(* Reference LRU: the oracle Plan_cache is held to.  An association
   list, most recent first, with the same capacity, eviction and
   migration rules as the cache, and none of its hash table, intrusive
   list or lock.  Slow, but obviously faithful to the definition. *)

type ('k, 'v) t = {
  capacity : int;
  mutable entries : ('k * 'v) list;  (** most recent first *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  { capacity; entries = []; hits = 0; misses = 0; evictions = 0 }

let find t k =
  match List.assoc_opt k t.entries with
  | Some v ->
    t.hits <- t.hits + 1;
    t.entries <- (k, v) :: List.remove_assoc k t.entries;
    Some v
  | None ->
    t.misses <- t.misses + 1;
    None

let insert t k v =
  let rest =
    if List.mem_assoc k t.entries then List.remove_assoc k t.entries
    else if List.length t.entries >= t.capacity then begin
      t.evictions <- t.evictions + 1;
      List.filteri (fun i _ -> i < t.capacity - 1) t.entries
    end
    else t.entries
  in
  t.entries <- (k, v) :: rest

(* Walk in recency order; [Some k'] re-keys in place unless [k'] is
   taken, in which case the stale copy goes but still counts as kept. *)
let migrate t ~decide =
  let kept = ref 0 and dropped = ref [] in
  List.iter
    (fun (k, v) ->
      match decide k v with
      | Some k' when k' = k -> incr kept
      | Some k' ->
        incr kept;
        t.entries <-
          (if List.mem_assoc k' t.entries then List.remove_assoc k t.entries
           else List.map (fun (k0, v0) -> ((if k0 = k then k' else k0), v0))
                  t.entries)
      | None ->
        dropped := (k, v) :: !dropped;
        t.entries <- List.remove_assoc k t.entries)
    t.entries;
  (!kept, List.rev !dropped)

module Circuit = Vqc_circuit.Circuit
module Qasm = Vqc_circuit.Qasm
module Device = Vqc_device.Device
module Catalog = Vqc_workloads.Catalog
module Compiler = Vqc_mapper.Compiler
module Layout = Vqc_mapper.Layout
module Router = Vqc_mapper.Router
module Pool = Vqc_engine.Pool
module Reliability = Vqc_sim.Reliability
module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace
module Json = Vqc_obs.Json
module Verify = Vqc_check.Verify
module Diagnostic = Vqc_diag.Diagnostic
module Staleness = Vqc_drift.Staleness
module Retention = Vqc_drift.Retention
module Recompiler = Vqc_drift.Recompiler

type config = {
  jobs : int;
  cache_capacity : int;
  cache_enabled : bool;
  queue_limit : int;
  verify : bool;
  drift : Retention.policy option;
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 256;
    cache_enabled = true;
    queue_limit = 64;
    verify = false;
    drift = None;
  }

let requests_total = Metrics.counter "service.requests"
let batches_total = Metrics.counter "service.batches"
let failures_total = Metrics.counter "service.failures"
let compiles_total = Metrics.counter "service.compiles"
let estimates_total = Metrics.counter "service.estimates"
let verify_checks_total = Metrics.counter "service.verify.checks"
let verify_ok_total = Metrics.counter "service.verify.ok"
let verify_rejected_total = Metrics.counter "service.verify.rejected"

(* The cache payload keeps the source and routed circuits and the final
   layout alongside the wire plan so cache hits can be re-verified — and
   drift-demoted plans recompiled — without the original request. *)
type cached = {
  plan : Protocol.plan;
  physical : Circuit.t;
  final : int array;
  source : Circuit.t;
}

(* A shared compile store (the "L2" behind the per-session caches of
   the TCP server): content-addressed like the session cache, but keyed
   purely by content — a plan for (circuit, calibration, policy) is
   correct forever, so the store is never invalidated on epoch moves
   and can be shared by sessions sitting at different epochs. *)
type store = cached Plan_cache.t

let shared_store ~capacity () =
  Plan_cache.create ~metrics_prefix:"serve.store" ~capacity ()

type t = {
  service_config : config;
  epoch : Epoch.t;
  cache : cached Plan_cache.t;
      (** allocated even when disabled; bypassed (never consulted) so
          hit/miss metrics stay silent with the cache off *)
  store : store option;
      (** cross-session plan store; consulted after a cache miss,
          written through on compile.  Store temperature is visible
          only under ["nd"]/metrics — deterministic response fields
          never depend on it. *)
  queue : Protocol.request Admission.t;
  pool : Pool.t;
  owns_pool : bool;
      (** sessions of one server share a pool; only its owner may shut
          it down *)
}

let create ?(config = default_config) ?pool ?store epoch =
  (match Pool.validate_jobs config.jobs with
  | Ok _ -> ()
  | Error message -> invalid_arg ("Service.create: " ^ message));
  let pool, owns_pool =
    match pool with
    | Some pool -> (pool, false)
    | None -> (Pool.create ~jobs:config.jobs (), true)
  in
  {
    service_config = config;
    epoch;
    cache = Plan_cache.create ~capacity:config.cache_capacity ();
    store;
    queue = Admission.create ~limit:config.queue_limit;
    pool;
    owns_pool;
  }

let config t = t.service_config
let epoch_manager t = t.epoch

let submit t request = Admission.enqueue t.queue request
let pending t = Admission.depth t.queue

(* Shared by the request path and the drift recompiler: everything a
   response needs, derived from one compiler result. *)
let payload_of_compiled ~device ~source ~epoch_index ~(key : Plan_cache.key)
    compiled =
  let physical_stats = Circuit.stats compiled.Compiler.physical in
  let plan =
    {
      Protocol.policy = key.Plan_cache.policy;
      epoch = epoch_index;
      qubits = Circuit.num_qubits source;
      layout = Layout.assignment compiled.Compiler.initial;
      swaps = compiled.Compiler.stats.Router.swaps_inserted;
      gates = physical_stats.Circuit.total_gates;
      depth = physical_stats.Circuit.depth;
      log_reliability =
        Compiler.log_gate_reliability device compiled.Compiler.physical;
      circuit_fp = key.Plan_cache.circuit_fp;
      calibration_fp = key.Plan_cache.calibration_fp;
    }
  in
  {
    plan;
    physical = compiled.Compiler.physical;
    final = Layout.assignment compiled.Compiler.final;
    source;
  }

(* ---- drift-aware epoch migration ----------------------------------- *)

(* Selective invalidation (Vqc_drift): score every cached plan against
   the calibration it was compiled for, retain the ones whose predicted
   PST moved less than the threshold (after re-verifying them against
   the new device), and recompile the rest in the background.

   Three phases, mirroring the flush pipeline's discipline:
   scoring runs outside the cache lock (the reliability model is not a
   [migrate] callback's business); the decision application is one
   locked [Plan_cache.migrate] walk in LRU order; the demoted set fans
   out over the worker pool keyed by that same order — so the final
   cache state is a pure function of (request stream, epoch history,
   drift policy), independent of worker count. *)
let drift_migrate t policy ~current cache =
  let new_device = Epoch.device t.epoch current in
  let new_fp = Epoch.fingerprint t.epoch current in
  let reverified = ref 0 in
  let decisions = Hashtbl.create 16 in
  List.iter
    (fun ((key : Plan_cache.key), payload) ->
      let verdict =
        if String.equal key.Plan_cache.calibration_fp new_fp then
          (* compiled for the calibration that just went live *)
          Some key
        else begin
          (* score against the plan's compile-time device — the payload
             provenance, not the cache key, which may have been re-keyed
             by an earlier retention *)
          match
            Epoch.find_fingerprint t.epoch payload.plan.Protocol.calibration_fp
          with
          | None -> None (* compile-time calibration left the rotation *)
          | Some compile_epoch -> begin
            let before = Epoch.device t.epoch compile_epoch in
            let score =
              Staleness.score ~before ~after:new_device payload.physical
            in
            match Retention.decide policy score with
            | Retention.Recompile -> None
            | Retention.Retain ->
              incr reverified;
              let diagnostics =
                Retention.reverify ~device:new_device ~source:payload.source
                  ~physical:payload.physical
                  ~initial:payload.plan.Protocol.layout ~final:payload.final
                  ~swaps:payload.plan.Protocol.swaps
              in
              if Diagnostic.has_errors diagnostics then None
              else Some { key with Plan_cache.calibration_fp = new_fp }
          end
        end
      in
      Hashtbl.replace decisions key verdict)
    (Plan_cache.entries cache);
  let outcome =
    Plan_cache.migrate cache ~decide:(fun key _ ->
        Option.join (Hashtbl.find_opt decisions key))
  in
  let tasks =
    List.filter_map
      (fun ((key : Plan_cache.key), payload) ->
        match Policies.find key.Plan_cache.policy with
        | None -> None
        | Some entry ->
          Some
            ( key,
              {
                Recompiler.id = Plan_cache.key_to_string key;
                device = new_device;
                policy = entry.Policies.policy;
                source = payload.source;
              } ))
      outcome.Plan_cache.dropped
  in
  let outcomes = Recompiler.run ~pool:t.pool (List.map snd tasks) in
  let recompiled = ref 0 in
  List.iter2
    (fun ((key : Plan_cache.key), task) outcome ->
      match outcome.Recompiler.plan with
      | Error _ -> () (* counted under drift.recompile_failures *)
      | Ok compiled ->
        incr recompiled;
        let key' = { key with Plan_cache.calibration_fp = new_fp } in
        Plan_cache.insert cache key'
          (payload_of_compiled ~device:new_device ~source:task.Recompiler.source
             ~epoch_index:current ~key:key' compiled))
    tasks outcomes;
  {
    Epoch.retained = outcome.Plan_cache.kept;
    reverified = !reverified;
    recompiled = !recompiled;
    invalidated = List.length outcome.Plan_cache.dropped;
  }

(* Wholesale invalidation reproduces the paper's
   recompile-per-calibration regime: after a calibration update only
   plans for the live calibration survive; anything pinned to a
   superseded epoch will recompile on its next request. *)
let flush_stale t ~current cache =
  let live = Epoch.fingerprint t.epoch current in
  let outcome =
    Plan_cache.migrate cache ~decide:(fun key _ ->
        if String.equal key.Plan_cache.calibration_fp live then Some key
        else None)
  in
  {
    Epoch.retained = outcome.Plan_cache.kept;
    reverified = 0;
    recompiled = 0;
    invalidated = List.length outcome.Plan_cache.dropped;
  }

(* The one place an epoch move touches a cache.  A wholesale drift
   policy (threshold <= 0) must be byte-identical to no drift at all,
   so it takes the flush path. *)
let after_move t ~previous ~current =
  let migration =
    if not t.service_config.cache_enabled then
      { Epoch.retained = 0; reverified = 0; recompiled = 0; invalidated = 0 }
    else
      match t.service_config.drift with
      | Some policy when not (Retention.wholesale policy) ->
        drift_migrate t policy ~current t.cache
      | Some _ | None -> flush_stale t ~current t.cache
  in
  if Trace.enabled () then
    Trace.emit ~source:"service" ~event:"epoch_advance"
      [
        ("from", Json.Int previous);
        ("to", Json.Int current);
        ("retained", Json.Int migration.Epoch.retained);
        ("reverified", Json.Int migration.Epoch.reverified);
        ("recompiled", Json.Int migration.Epoch.recompiled);
        ("invalidated", Json.Int migration.Epoch.invalidated);
      ];
  migration

let advance_epoch t =
  let previous, current = Epoch.advance t.epoch in
  (current, after_move t ~previous ~current)

let set_epoch t current =
  let previous = Epoch.set t.epoch current in
  after_move t ~previous ~current

(* ---- request resolution -------------------------------------------- *)

type prepared = {
  request : Protocol.request;
  circuit : Circuit.t;
  device : Device.t;
  entry : Policies.entry;
  epoch_index : int;
  key : Plan_cache.key;
}

let resolve t (request : Protocol.request) =
  let circuit =
    match request.Protocol.source with
    | Protocol.Workload name -> begin
      match Catalog.find name with
      | entry -> Ok entry.Catalog.circuit
      | exception Not_found ->
        Error
          (Printf.sprintf "unknown workload %S; available: %s" name
             (String.concat ", " (Catalog.names ())))
    end
    | Protocol.Inline_qasm text -> begin
      match Qasm.of_string text with
      | Ok circuit -> Ok circuit
      | Error message -> Error ("QASM parse error: " ^ message)
    end
  in
  match circuit with
  | Error _ as e -> e
  | Ok circuit -> begin
    match Policies.find request.Protocol.policy with
    | None ->
      Error
        (Printf.sprintf "unknown policy %S; available: %s"
           request.Protocol.policy
           (String.concat ", " (Policies.names ())))
    | Some entry ->
      let epoch_index =
        match request.Protocol.epoch with
        | Some e -> e
        | None -> Epoch.current t.epoch
      in
      if epoch_index < 0 || epoch_index >= Epoch.epochs t.epoch then
        Error
          (Printf.sprintf "epoch %d out of range (service has %d epochs)"
             epoch_index (Epoch.epochs t.epoch))
      else begin
        let device = Epoch.device t.epoch epoch_index in
        if Circuit.num_qubits circuit > Device.num_qubits device then
          Error
            (Printf.sprintf
               "circuit needs %d qubits but device %s has %d"
               (Circuit.num_qubits circuit) (Device.name device)
               (Device.num_qubits device))
        else
          Ok
            {
              request;
              circuit;
              device;
              entry;
              epoch_index;
              key =
                {
                  Plan_cache.circuit_fp = Fingerprint.circuit circuit;
                  calibration_fp = Epoch.fingerprint t.epoch epoch_index;
                  policy = entry.Policies.label;
                };
            }
      end
  end

(* ---- compilation --------------------------------------------------- *)

(* Worker-side result: pure data, no metrics (workers are domains;
   counters are bumped serially after the fan-in). *)
type compile_result =
  | Plan of cached
  | Invalid_result of Diagnostic.t list
  | Compile_error of string

let compile_plan ~verify prepared =
  let start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. start in
  match
    Compiler.compile prepared.device prepared.entry.Policies.policy
      prepared.circuit
  with
  | compiled ->
    let payload =
      payload_of_compiled ~device:prepared.device ~source:prepared.circuit
        ~epoch_index:prepared.epoch_index ~key:prepared.key compiled
    in
    if not verify then (Plan payload, elapsed ())
    else begin
      let diagnostics =
        Verify.compiled prepared.device prepared.circuit compiled
      in
      if Diagnostic.has_errors diagnostics then
        (Invalid_result diagnostics, elapsed ())
      else (Plan payload, elapsed ())
    end
  | exception Verify.Invalid_plan diagnostics ->
    (* an installed compiler check (Verify.install_compiler_check)
       rejected the plan before it reached us *)
    (Invalid_result diagnostics, elapsed ())
  | exception (Invalid_argument message | Failure message) ->
    (Compile_error message, elapsed ())

(* Re-verify a cache hit against the device of the requested epoch —
   the same replay a drift retention runs, so cache hits and retained
   plans are held to one bar. *)
let verify_cached prepared payload =
  Retention.reverify ~device:prepared.device ~source:prepared.circuit
    ~physical:payload.physical ~initial:payload.plan.Protocol.layout
    ~final:payload.final ~swaps:payload.plan.Protocol.swaps

(* The PST rider is the exact product over the plan's independent
   failure events on the requested epoch's device.  It is computed per
   request, never cached with the plan: a drift-retained plan moves to
   a new calibration, and a stored value would go stale. *)
let run_estimate prepared payload =
  if not prepared.request.Protocol.estimate then None
  else begin
    Metrics.incr estimates_total;
    Some (Reliability.pst prepared.device payload.physical)
  end

(* One resolved request, carrying what the lookup phase learned. *)
type slot =
  | Unresolvable of Protocol.request * string
  | Cached of prepared * cached * float  (** lookup seconds *)
  | Stored of prepared * cached * float
      (** session-cache miss served by the shared store.  The payload
          enters the session cache in phase 4 (first-occurrence order),
          exactly where a fresh compile's insert would land — so the
          session cache's LRU evolution, and with it every
          deterministic response field, is byte-identical to a run
          against a cold or absent store. *)
  | Needs_compile of prepared

let trace_response response =
  if Trace.enabled () then begin
    match response with
    | Protocol.Compiled { plan; cache; seconds; _ } ->
      Trace.emit ~source:"service" ~event:"response"
        ~nd:
          [
            ("cache", Json.String (Protocol.cache_status_to_string cache));
            ("seconds", Json.Float seconds);
          ]
        [
          ("status", Json.String "ok");
          ("policy", Json.String plan.Protocol.policy);
          ("epoch", Json.Int plan.Protocol.epoch);
          ("circuit", Json.String plan.Protocol.circuit_fp);
          ("calibration", Json.String plan.Protocol.calibration_fp);
        ]
    | Protocol.Invalid { diagnostics; cache; seconds; _ } ->
      Trace.emit ~source:"service" ~event:"response"
        ~nd:
          [
            ("cache", Json.String (Protocol.cache_status_to_string cache));
            ("seconds", Json.Float seconds);
          ]
        [
          ("status", Json.String "invalid");
          ( "codes",
            Json.List
              (List.map
                 (fun d -> Json.String d.Diagnostic.code)
                 diagnostics) );
        ]
    | Protocol.Failed { error; _ } ->
      Trace.emit ~source:"service" ~event:"response"
        [ ("status", Json.String "error"); ("error", Json.String error) ]
    | Protocol.Rejected _ | Protocol.Control_ack _ -> ()
  end

let flush t =
  let requests = Admission.drain t.queue in
  if requests = [] then []
  else begin
    Metrics.incr batches_total;
    Metrics.add requests_total (List.length requests);
    let batch_start = Unix.gettimeofday () in
    (* Phase 1+2: resolve every request and consult the cache serially,
       in admission order — hit/miss is a pure function of the request
       stream, independent of worker count. *)
    let slots =
      List.map
        (fun request ->
          match resolve t request with
          | Error message -> Unresolvable (request, message)
          | Ok prepared ->
            if not t.service_config.cache_enabled then Needs_compile prepared
            else begin
              let start = Unix.gettimeofday () in
              match Plan_cache.find t.cache prepared.key with
              | Some payload ->
                Cached (prepared, payload, Unix.gettimeofday () -. start)
              | None -> begin
                (* session-cache miss: try the shared store (the
                   compiles of other sessions) before paying for a
                   compile of our own *)
                match
                  Option.bind t.store (fun store ->
                      Plan_cache.find store prepared.key)
                with
                | Some payload ->
                  Stored (prepared, payload, Unix.gettimeofday () -. start)
                | None -> Needs_compile prepared
              end
            end)
        requests
    in
    (* Phase 3: distinct missing keys compile in parallel; duplicates
       within the batch compile once, and keys the shared store already
       holds do not compile at all.  First-occurrence order over {e
       all} misses (stored or not) keys the fan-out and the insertion
       order, so the session cache evolves byte-identically whether the
       store was warm, cold, or absent. *)
    let seen = Hashtbl.create 16 in
    let unique =
      List.filter_map
        (function
          | Stored (prepared, payload, _)
            when not (Hashtbl.mem seen prepared.key) ->
            Hashtbl.add seen prepared.key ();
            Some (prepared, Some payload)
          | Needs_compile prepared when not (Hashtbl.mem seen prepared.key)
            ->
            Hashtbl.add seen prepared.key ();
            Some (prepared, None)
          | _ -> None)
        slots
    in
    let to_compile =
      List.filter_map
        (function p, None -> Some p | _, Some _ -> None)
        unique
    in
    let compiled = Hashtbl.create 16 in
    let verify = t.service_config.verify in
    let results =
      if to_compile = [] then []
      else begin
        Metrics.add compiles_total (List.length to_compile);
        Pool.map t.pool
          ~f:(fun _ prepared -> compile_plan ~verify prepared)
          to_compile
      end
    in
    (* Phase 4: cache insertion is serial and in first-occurrence
       order, so the LRU state after the batch is deterministic too.
       Rejected plans never enter the cache or the store, and
       verification metrics are counted here, outside the worker
       domains. *)
    let remaining = ref results in
    List.iter
      (fun (prepared, stored_payload) ->
        let result =
          match stored_payload with
          | Some payload -> (Plan payload, 0.0)
          | None -> begin
            match !remaining with
            | result :: rest ->
              remaining := rest;
              result
            | [] -> assert false (* one pool result per to_compile entry *)
          end
        in
        Hashtbl.replace compiled prepared.key result;
        match result with
        | Plan payload, _ ->
          if verify && stored_payload = None then begin
            Metrics.incr verify_checks_total;
            Metrics.incr verify_ok_total
          end;
          if t.service_config.cache_enabled then begin
            Plan_cache.insert t.cache prepared.key payload;
            (* write-through: fresh compiles warm the shared store *)
            if stored_payload = None then
              Option.iter
                (fun store -> Plan_cache.insert store prepared.key payload)
                t.store
          end
        | Invalid_result _, _ ->
          if verify then begin
            Metrics.incr verify_checks_total;
            Metrics.incr verify_rejected_total
          end
        | Compile_error _, _ -> ())
      unique;
    (* Phase 5: responses in admission order. *)
    let cache_status =
      if t.service_config.cache_enabled then Protocol.Miss
      else Protocol.Bypass
    in
    let responses =
      List.map
        (fun slot ->
          match slot with
          | Unresolvable (request, error) ->
            Metrics.incr failures_total;
            Protocol.Failed { id = request.Protocol.id; error }
          | Cached (prepared, payload, seconds)
          | Stored (prepared, payload, seconds) ->
            if not t.service_config.verify then
              Protocol.Compiled
                {
                  id = prepared.request.Protocol.id;
                  plan = payload.plan;
                  estimate = run_estimate prepared payload;
                  cache = Protocol.Hit;
                  seconds;
                }
            else begin
              (* Cache hits are re-verified too — a poisoned or stale
                 entry must not ride the fast path past the checker. *)
              Metrics.incr verify_checks_total;
              let diagnostics = verify_cached prepared payload in
              if Diagnostic.has_errors diagnostics then begin
                Metrics.incr verify_rejected_total;
                Protocol.Invalid
                  {
                    id = prepared.request.Protocol.id;
                    diagnostics;
                    cache = Protocol.Hit;
                    seconds;
                  }
              end
              else begin
                Metrics.incr verify_ok_total;
                Protocol.Compiled
                  {
                    id = prepared.request.Protocol.id;
                    plan = payload.plan;
                    estimate = run_estimate prepared payload;
                    cache = Protocol.Hit;
                    seconds;
                  }
              end
            end
          | Needs_compile prepared -> begin
            match Hashtbl.find compiled prepared.key with
            | Plan payload, seconds ->
              Protocol.Compiled
                {
                  id = prepared.request.Protocol.id;
                  plan = payload.plan;
                  estimate = run_estimate prepared payload;
                  cache = cache_status;
                  seconds;
                }
            | Invalid_result diagnostics, seconds ->
              Protocol.Invalid
                {
                  id = prepared.request.Protocol.id;
                  diagnostics;
                  cache = cache_status;
                  seconds;
                }
            | Compile_error error, _ ->
              Metrics.incr failures_total;
              Protocol.Failed { id = prepared.request.Protocol.id; error }
          end)
        slots
    in
    List.iter trace_response responses;
    if Trace.enabled () then begin
      let count status =
        List.length
          (List.filter
             (fun r ->
               match (r, status) with
               | Protocol.Compiled { cache = Protocol.Hit; _ }, `Hit -> true
               | ( Protocol.Compiled
                     { cache = Protocol.Miss | Protocol.Bypass; _ },
                   `Cold ) -> true
               | Protocol.Failed _, `Failed -> true
               | _ -> false)
             responses)
      in
      Trace.emit ~source:"service" ~event:"batch"
        ~nd:[ ("seconds", Json.Float (Unix.gettimeofday () -. batch_start)) ]
        [
          ("size", Json.Int (List.length requests));
          ("hits", Json.Int (count `Hit));
          ("cold", Json.Int (count `Cold));
          ("failed", Json.Int (count `Failed));
        ]
    end;
    responses
  end

let shutdown t = if t.owns_pool then Pool.shutdown t.pool

let with_service ?config epoch f =
  let t = create ?config epoch in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

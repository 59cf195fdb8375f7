module Device = Vqc_device.Device
module History = Vqc_device.History
module Metrics = Vqc_obs.Metrics
module Trace = Vqc_obs.Trace

let advances = Metrics.counter "service.epoch.advances"
let current_gauge = Metrics.gauge "service.epoch.current"

type t = {
  devices : Device.t array;
  fingerprints : string array;
  mutable current : int;
  lock : Mutex.t;
}

let of_devices devices =
  if devices = [] then invalid_arg "Epoch.of_devices: no devices";
  let devices = Array.of_list devices in
  {
    devices;
    fingerprints = Array.map (fun d -> Fingerprint.calibration (Device.calibration d)) devices;
    current = 0;
    lock = Mutex.create ();
  }

let of_history ?gate_times ~name ~coupling history =
  of_devices
    (List.map
       (fun calibration -> Device.make ?gate_times ~name ~coupling calibration)
       (History.all history))

let epochs t = Array.length t.devices

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let current t = locked t (fun () -> t.current)

(* A fork shares the (immutable) device rotation but owns its cursor:
   sessions of the TCP server each fork the boot epoch manager so one
   client's epoch-advance cannot move another client's pin. *)
let fork t =
  {
    devices = t.devices;
    fingerprints = t.fingerprints;
    current = current t;
    lock = Mutex.create ();
  }

let check t epoch =
  if epoch < 0 || epoch >= Array.length t.devices then
    invalid_arg
      (Printf.sprintf "epoch %d out of range (service has %d epochs)" epoch
         (Array.length t.devices))

let device t epoch =
  check t epoch;
  t.devices.(epoch)

let fingerprint t epoch =
  check t epoch;
  t.fingerprints.(epoch)

let find_fingerprint t fp =
  let rec scan i =
    if i >= Array.length t.fingerprints then None
    else if String.equal t.fingerprints.(i) fp then Some i
    else scan (i + 1)
  in
  scan 0

type migration = {
  retained : int;
  reverified : int;
  recompiled : int;
  invalidated : int;
}

let no_migration =
  { retained = 0; reverified = 0; recompiled = 0; invalidated = 0 }

type 'a migrate = previous:int -> current:int -> 'a Plan_cache.t -> migration

(* Wholesale invalidation reproduces the paper's
   recompile-per-calibration regime: after a calibration update only
   plans for the live calibration survive; anything pinned to a
   superseded epoch will recompile on its next request. *)
let flush_superseded t cache epoch =
  let live = t.fingerprints.(epoch) in
  let dropped =
    Plan_cache.retain cache (fun key -> key.Plan_cache.calibration_fp = live)
  in
  {
    no_migration with
    retained = Plan_cache.length cache;
    invalidated = dropped;
  }

let move ?migrate t cache epoch =
  let previous =
    locked t (fun () ->
        let previous = t.current in
        t.current <- epoch;
        previous)
  in
  Metrics.incr advances;
  Metrics.set current_gauge (float_of_int epoch);
  let migration =
    match cache with
    | None -> no_migration
    | Some cache -> (
      match migrate with
      | Some migrate -> migrate ~previous ~current:epoch cache
      | None -> flush_superseded t cache epoch)
  in
  if Trace.enabled () then
    Trace.emit ~source:"service" ~event:"epoch_advance"
      [
        ("from", Vqc_obs.Json.Int previous);
        ("to", Vqc_obs.Json.Int epoch);
        ("retained", Vqc_obs.Json.Int migration.retained);
        ("reverified", Vqc_obs.Json.Int migration.reverified);
        ("recompiled", Vqc_obs.Json.Int migration.recompiled);
        ("invalidated", Vqc_obs.Json.Int migration.invalidated);
      ];
  migration

let advance ?migrate t cache =
  let next = (current t + 1) mod epochs t in
  let migration = move ?migrate t cache next in
  (next, migration)

let set ?migrate t cache epoch =
  check t epoch;
  move ?migrate t cache epoch

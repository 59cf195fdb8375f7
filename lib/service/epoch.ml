module Device = Vqc_device.Device
module History = Vqc_device.History
module Metrics = Vqc_obs.Metrics

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

let move t epoch =
  let previous =
    locked t (fun () ->
        let previous = t.current in
        t.current <- epoch;
        previous)
  in
  Metrics.incr advances;
  Metrics.set current_gauge (float_of_int epoch);
  previous

let advance t =
  let next = (current t + 1) mod epochs t in
  (move t next, next)

let set t epoch =
  check t epoch;
  move t epoch

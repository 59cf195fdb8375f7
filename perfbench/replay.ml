(* In-process replay of the client streams of a serve run, through the
   layer entry points a TCP session calls: Protocol.parse_line,
   Service.submit / flush / advance_epoch and Protocol.render.  Two
   sessions share one worker pool and one compile store, as the
   server's do, and take their lines round-robin.  With
   [Spans.recording] on, every call is a span of its request. *)

module Protocol = Vqc_service.Protocol
module Service = Vqc_service.Service
module Epoch = Vqc_service.Epoch
module Pool = Vqc_engine.Pool
module History = Vqc_device.History
module Topologies = Vqc_device.Topologies

let jobs = 2
let drift_threshold = 0.05

(* The calibration rotation vqc-serve builds for --days 52 (its default
   --seed 2). *)
let epochs () =
  let coupling = Topologies.ibm_q20_tokyo in
  Epoch.of_history ~name:"Q20" ~coupling
    (History.generate ~days:Inputs.days ~seed:2 ~coupling 20)

(* The service configuration the server flags of Serve.flags give. *)
let config kind =
  let drift = kind = Inputs.Drift in
  {
    Service.default_config with
    Service.jobs;
    verify = drift;
    drift =
      (if drift then Some { Vqc_drift.Retention.threshold = drift_threshold } else None);
  }

type result = {
  lines : string array array;  (** rendered responses, per client *)
  wall : float;
  rejected : int;
  migrations : Epoch.migration list;
}

let flush service =
  Spans.span "service.flush" (fun () ->
      let before = Layers.inner_seconds () in
      let responses = Service.flush service in
      Spans.inner "program.spans" (Layers.inner_seconds () -. before);
      responses)

let run kind streams =
  Vqc_mapper.Router.memo_clear ();
  let pool = Pool.create ~jobs () in
  let store = Service.shared_store ~capacity:1024 () in
  let boot = epochs () in
  let sessions =
    Array.map
      (fun _ -> Service.create ~config:(config kind) ~pool ~store (Epoch.fork boot))
      streams
  in
  let rejected = ref 0 and migrations = ref [] and request = ref 0 in
  let answer service line =
    incr request;
    Spans.span ~request:!request "request" @@ fun () ->
    let responses =
      match Spans.span "protocol.parse" (fun () -> Protocol.parse_line line) with
      | Error error -> [ Protocol.Failed { id = None; error } ]
      | Ok (Protocol.Control Protocol.Advance_epoch) ->
        let _, migration =
          Spans.span "drift.advance" (fun () -> Service.advance_epoch service)
        in
        migrations := migration :: !migrations;
        let epoch = Epoch.current (Service.epoch_manager service) in
        [ Protocol.Control_ack { op = "advance_epoch"; epoch; migration = Some migration } ]
      | Ok (Protocol.Control _) -> invalid_arg "Replay.run: unexpected control line"
      | Ok (Protocol.Compile request) -> begin
        match Spans.span "admission.submit" (fun () -> Service.submit service request) with
        | Ok () -> flush service
        | Error reason ->
          incr rejected;
          [ Protocol.Rejected { id = request.Protocol.id; reason } ]
      end
    in
    List.map (fun r -> Spans.span "protocol.render" (fun () -> Protocol.render r)) responses
  in
  let out = Array.map (fun _ -> ref []) streams in
  let longest = Array.fold_left (fun n s -> max n (Array.length s)) 0 streams in
  let started = Unix.gettimeofday () in
  for i = 0 to longest - 1 do
    Array.iteri
      (fun c stream ->
        if i < Array.length stream then
          out.(c) := List.rev_append (answer sessions.(c) stream.(i)) !(out.(c)))
      streams
  done;
  let wall = Unix.gettimeofday () -. started in
  Pool.shutdown pool;
  {
    lines = Array.map (fun r -> Array.of_list (List.rev !r)) out;
    wall;
    rejected = !rejected;
    migrations = !migrations;
  }

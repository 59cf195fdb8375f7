module Service = Vqc_service.Service
module Epoch = Vqc_service.Epoch
module Pool = Vqc_engine.Pool
module Metrics = Vqc_obs.Metrics
module Json = Vqc_obs.Json
module Diagnostic = Vqc_diag.Diagnostic

type config = {
  port : int;
  clients_max : int;
  session : Session.config;
  service : Service.config;
  store_capacity : int;
}

let default_config =
  {
    port = 0;
    clients_max = 64;
    session = Session.default_config;
    service = Service.default_config;
    store_capacity = 1024;
  }

type t = {
  listener : Unix.file_descr;
  server_port : int;
  server_config : config;
  epoch : Epoch.t;
  pool : Pool.t;
  store : Service.store;
  stopping : bool Atomic.t;
  active : int Atomic.t;
  mutable sessions : (bool Atomic.t * unit Domain.t) list;
      (** owned by the accept domain; each flag is set by its session as
          its last act.  [stop] reads the list only after joining the
          accept domain. *)
  mutable accept_domain : unit Domain.t option;
  connections_total : Metrics.counter;
  rejected_total : Metrics.counter;
  accept_errors_total : Metrics.counter;
  sessions_gauge : Metrics.gauge;
}

let port t = t.server_port

(* Join every session domain that has finished.  Runs on the accept
   path before each spawn: the runtime caps live domains, so a
   long-lived server must recycle the slots of departed clients. *)
let reap t =
  let finished, live =
    List.partition (fun (flag, _) -> Atomic.get flag) t.sessions
  in
  t.sessions <- live;
  List.iter (fun (_, domain) -> Domain.join domain) finished

(* A refused connection still gets one well-formed response line — the
   same "rejected" shape the admission queue uses, with the VQC131
   server-capacity code — before the socket closes, so clients can tell
   load-shedding from a network failure. *)
let reject_connection t fd =
  Metrics.incr t.rejected_total;
  let line =
    Json.to_string
      (Json.Obj
         [
           ("status", Json.String "rejected");
           ("reason", Json.String "server_full");
           ("code", Json.String Diagnostic.code_server_full);
           ("limit", Json.Int t.server_config.clients_max);
         ])
    ^ "\n"
  in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let run_session t fd finished =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (* The slot is released before the socket closes, so a client
         that reads EOF and reconnects at once finds it free.  [oc] is
         the descriptor's one owner: close_out_noerr flushes what it
         can, then closes the fd exactly once even when the flush fails
         with Sys_error (peer gone).  [ic] reads the same fd and is
         never closed — a second close would hit the fd number after
         the accept domain may have reused it for a new client. *)
      Atomic.decr t.active;
      Metrics.set t.sessions_gauge (float_of_int (Atomic.get t.active));
      close_out_noerr oc;
      Atomic.set finished true)
    (fun () ->
      (* each session is a full service of its own — private plan
         cache, private admission queue, private epoch cursor — over
         the server's shared pool and store *)
      let service =
        Service.create ~config:t.server_config.service ~pool:t.pool
          ~store:t.store
          (Epoch.fork t.epoch)
      in
      ignore (Session.run ~config:t.server_config.session service ic oc))

let spawn_session t fd =
  Metrics.incr t.connections_total;
  Atomic.incr t.active;
  Metrics.set t.sessions_gauge (float_of_int (Atomic.get t.active));
  let finished = Atomic.make false in
  match Domain.spawn (fun () -> run_session t fd finished) with
  | domain -> t.sessions <- (finished, domain) :: t.sessions
  | exception Failure _ ->
    (* domain limit: shed the connection like a clients_max overflow *)
    Atomic.decr t.active;
    Metrics.set t.sessions_gauge (float_of_int (Atomic.get t.active));
    reject_connection t fd

(* Only the stopping flag ends the loop.  An accept error while running
   (EMFILE with every descriptor held by live sessions, ENOBUFS, ...) is
   counted and retried; a short back-off keeps a persistent one from
   spinning, while ECONNABORTED and EINTR retry at once. *)
let rec accept_loop t =
  match Unix.accept t.listener with
  | exception Unix.Unix_error (error, _, _) ->
    if not (Atomic.get t.stopping) then begin
      Metrics.incr t.accept_errors_total;
      (match error with
      | Unix.ECONNABORTED | Unix.EINTR -> ()
      | _ -> Unix.sleepf 0.01);
      accept_loop t
    end
  | fd, _ ->
    if Atomic.get t.stopping then begin
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      reap t;
      if Atomic.get t.active >= t.server_config.clients_max then
        reject_connection t fd
      else spawn_session t fd;
      accept_loop t
    end

let start ?(config = default_config) epoch =
  if config.clients_max < 1 then
    invalid_arg
      (Printf.sprintf "Server.start: clients_max must be >= 1 (got %d)"
         config.clients_max);
  if config.port < 0 || config.port > 65535 then
    invalid_arg
      (Printf.sprintf "Server.start: port out of range (got %d)" config.port);
  (* a client that disappears mid-write must surface as an error on the
     session, not kill the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener
       (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
     Unix.listen listener 128
   with
  | () -> ()
  | exception e ->
    (try Unix.close listener with Unix.Unix_error _ -> ());
    raise e);
  let server_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> assert false
  in
  let t =
    {
      listener;
      server_port;
      server_config = config;
      epoch;
      pool = Pool.create ~jobs:config.service.Service.jobs ();
      store = Service.shared_store ~capacity:config.store_capacity ();
      stopping = Atomic.make false;
      active = Atomic.make 0;
      sessions = [];
      accept_domain = None;
      connections_total = Metrics.counter "serve.net.connections";
      rejected_total = Metrics.counter "serve.net.rejected";
      accept_errors_total = Metrics.counter "serve.net.accept_errors";
      sessions_gauge = Metrics.gauge "serve.net.sessions";
    }
  in
  t.accept_domain <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let wait t = Option.iter Domain.join t.accept_domain

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* wake the accept loop with a throwaway connection so it observes
       the stopping flag *)
    (let wake = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     (try
        Unix.connect wake
          (Unix.ADDR_INET (Unix.inet_addr_loopback, t.server_port))
      with Unix.Unix_error _ -> ());
     try Unix.close wake with Unix.Unix_error _ -> ());
    (match t.accept_domain with
    | Some domain ->
      Domain.join domain;
      t.accept_domain <- None
    | None -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* sessions end when their clients hang up; wait for the stragglers
       (the accept domain is joined, so the list is ours now) *)
    List.iter (fun (_, domain) -> Domain.join domain) t.sessions;
    t.sessions <- [];
    Pool.shutdown t.pool
  end

(* The serve workloads against a vqc-serve process: spawn the server on
   an ephemeral port, warm each client's session, drive a closed loop
   of [clients] pipelined connections for the measured seconds, then
   check every response — status, estimate precision, and the
   nd-stripped bytes of each client against the same stream replayed
   alone through vqc-serve on stdin. *)

module Json_io = Vqc_service.Json_io

let clients = 2
let window = 8
let setups = 3

let flags ?(jobs = Replay.jobs) kind =
  [ "--jobs"; string_of_int jobs; "--batch"; "1"; "--days"; string_of_int Inputs.days ]
  @
  match kind with
  | Inputs.Drift -> [ "--verify"; "--drift-threshold"; Printf.sprintf "%g" Replay.drift_threshold ]
  | Inputs.Hot | Inputs.Estimate -> []

(* ---- child processes: each is killed and reaped on every exit path -- *)

let children = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let () = at_exit (fun () -> List.iter reap !children)

let spawn exe args ~stdin ~stdout ~stderr =
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) stdin stdout stderr in
  children := pid :: !children;
  pid

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

type server = {
  pid : int;
  port : int;
  drain : Thread.t;
}

(* Start [vqc-serve --tcp 0] and read the port from its "listening on"
   line; the rest of its stderr is passed through. *)
let start_server exe kind =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = dev_null () in
  let pid = spawn exe ("--tcp" :: "0" :: flags kind) ~stdin:null ~stdout:null ~stderr:w in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  let rec port () =
    match In_channel.input_line ic with
    | None -> failwith "vqc-serve exited before listening"
    | Some line -> (
      match Scanf.sscanf_opt line "vqc-serve: listening on 127.0.0.1:%d" Fun.id with
      | Some port -> port
      | None ->
        prerr_endline line;
        port ())
  in
  let port = port () in
  let pass_through () =
    (try
       while true do
         prerr_endline (input_line ic)
       done
     with End_of_file | Sys_error _ -> ());
    close_in_noerr ic
  in
  { pid; port; drain = Thread.create pass_through () }

let stop_server server =
  reap server.pid;
  Thread.join server.drain

(* ---- clients ------------------------------------------------------- *)

type client = {
  chan : (Unix.file_descr * in_channel * out_channel) option;
  mutable sent : string list;  (** sent lines, newest first *)
  mutable received : string list;  (** newest first *)
  mutable latencies : float list;  (** measured requests, newest first *)
  mutable error : string option;
}

let client port =
  let empty chan error = { chan; sent = []; received = []; latencies = []; error } in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
    empty (Some (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)) None
  | exception Unix.Unix_error (e, _, _) ->
    Unix.close fd;
    empty None (Some (Unix.error_message e))

(* The one owner of the socket closes it, once. *)
let close c = Option.iter (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) c.chan

(* Closed loop: send lines from [next] with at most [window] in flight
   until it returns [None], then read the outstanding responses.  A
   refused or reset connection ends the exchange; its unanswered
   requests count as failures. *)
let exchange c ~record next =
  match c.chan with
  | None -> ()
  | Some (_, ic, oc) -> (
    let in_flight = Queue.create () in
    let receive () =
      let line = input_line ic in
      let latency = Unix.gettimeofday () -. Queue.pop in_flight in
      c.received <- line :: c.received;
      if record then c.latencies <- latency :: c.latencies
    in
    let rec go () =
      if Queue.length in_flight >= window then begin
        receive ();
        go ()
      end
      else
        match next () with
        | Some line ->
          c.sent <- line :: c.sent;
          Queue.push (Unix.gettimeofday ()) in_flight;
          output_string oc line;
          output_char oc '\n';
          flush oc;
          go ()
        | None ->
          while not (Queue.is_empty in_flight) do
            receive ()
          done
    in
    try go ()
    with (End_of_file | Sys_error _ | Unix.Unix_error _) as e ->
      c.error <- Some (Printexc.to_string e))

let of_list lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | line :: tail ->
      rest := tail;
      Some line

(* ---- response checks ----------------------------------------------- *)

(* Every deterministic field precedes "nd", which is always last. *)
let strip_nd line =
  let marker = ",\"nd\":{" in
  let m = String.length marker in
  let rec find i =
    if i < 0 then line
    else if String.sub line i m = marker then String.sub line 0 i ^ "}"
    else find (i - 1)
  in
  find (String.length line - m)

type parsed = {
  ok : bool;  (** status ok, and the estimate (if any) met its precision *)
  cache : string option;  (** nd.cache of a compile response *)
  seconds : float;  (** nd.seconds *)
  trials : int;  (** estimate.trials *)
}

let parse ~estimate line =
  let member path json =
    List.fold_left (fun j key -> Option.bind j (Json_io.member key)) (Some json) path
  in
  match Json_io.parse line with
  | Error _ -> { ok = false; cache = None; seconds = 0.0; trials = 0 }
  | Ok json ->
    let str path = Option.bind (member path json) Json_io.string_value in
    let num path = Option.bind (member path json) Json_io.float_value in
    let trials = Option.bind (member [ "estimate"; "trials" ] json) Json_io.int_value in
    let precise =
      (not estimate)
      || str [ "estimate"; "stop" ] = Some "budget"
      ||
      match num [ "estimate"; "half_width" ] with
      | Some w -> w <= Inputs.precision
      | None -> false
    in
    {
      ok = str [ "status" ] = Some "ok" && precise;
      cache = str [ "nd"; "cache" ];
      seconds = Option.value (num [ "nd"; "seconds" ]) ~default:0.0;
      trials = Option.value trials ~default:0;
    }

(* Replay each client's stream alone through vqc-serve on stdin and
   count the responses whose nd-stripped bytes differ. *)
let replay_mismatches exe kind ~dir streams responses =
  let runs =
    Array.mapi
      (fun i stream ->
        let path = Filename.concat dir (Printf.sprintf "replay-%d.ndjson" i) in
        Out_channel.with_open_text path (fun oc ->
            Array.iter (fun l -> output_string oc l; output_char oc '\n') stream);
        let input = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
        let r, w = Unix.pipe ~cloexec:true () in
        let pid = spawn exe (flags ~jobs:1 kind) ~stdin:input ~stdout:w ~stderr:Unix.stderr in
        Unix.close input;
        Unix.close w;
        let lines = ref [] in
        let reader =
          Thread.create
            (fun ic ->
              (try
                 while true do
                   lines := input_line ic :: !lines
                 done
               with End_of_file -> ());
              close_in ic)
            (Unix.in_channel_of_descr r)
        in
        (pid, reader, lines, path))
      streams
  in
  Array.mapi
    (fun i (pid, reader, lines, path) ->
      Thread.join reader;
      ignore (Unix.waitpid [] pid);
      children := List.filter (( <> ) pid) !children;
      Sys.remove path;
      let alone = Array.of_list (List.rev_map strip_nd !lines) in
      let served = responses.(i) in
      let n = min (Array.length alone) (Array.length served) in
      let differ = ref (abs (Array.length alone - Array.length served)) in
      for j = 0 to n - 1 do
        if alone.(j) <> strip_nd served.(j) then incr differ
      done;
      !differ)
    runs
  |> Array.fold_left ( + ) 0

(* ---- one run ------------------------------------------------------- *)

type outcome = {
  metrics : Stats.metric list;
  attempted : int;
  failed : int;
  streams : string array array;  (** every line each client sent *)
  responses : string array array;
  net_overhead : float array;  (** latency minus nd.seconds, s *)
}

let rev_array l = Array.of_list (List.rev l)

let run ~exe ~dir kind ~seed ~seconds =
  let attempted = ref 0 and failed = ref 0 in
  (* count a finished client's lines *)
  let account (c : client) =
    attempted := !attempted + List.length c.sent + (if c.chan = None then 1 else 0);
    failed :=
      !failed + (List.length c.sent - List.length c.received)
      + if c.chan = None then 1 else 0;
    Option.iter (fun e -> Printf.eprintf "perfbench: client failed: %s\n%!" e) c.error
  in
  let setup () =
    let started = Unix.gettimeofday () in
    let server = start_server exe kind in
    let conns = Array.init clients (fun _ -> client server.port) in
    Array.iter (fun c -> exchange c ~record:false (of_list (Inputs.warmup kind))) conns;
    (Unix.gettimeofday () -. started, server, conns)
  in
  let check_warmup conns =
    Array.iter
      (fun (c : client) ->
        List.iter
          (fun line ->
            if not (parse ~estimate:false line).ok then incr failed)
          c.received)
      conns
  in
  let setup_times = ref [] in
  let rec set_up n =
    let t, server, conns = setup () in
    setup_times := t :: !setup_times;
    check_warmup conns;
    if n = 1 then (server, conns)
    else begin
      Array.iter (fun c -> account c; close c) conns;
      stop_server server;
      set_up (n - 1)
    end
  in
  let server, conns = set_up setups in
  let warm = Array.map (fun c -> List.length c.received) conns in
  let deadline = Unix.gettimeofday () +. seconds in
  let started = Unix.gettimeofday () in
  let threads =
    Array.mapi
      (fun i c ->
        let next = Inputs.stream kind ~seed ~client:i in
        Thread.create
          (fun () ->
            exchange c ~record:true (fun () ->
                if Unix.gettimeofday () < deadline then Some (next ()) else None))
          ())
      conns
  in
  Array.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. started in
  let rss = Stats.peak_rss_mb (string_of_int server.pid) in
  Array.iter close conns;
  stop_server server;
  Array.iter account conns;
  let streams = Array.map (fun c -> rev_array c.sent) conns in
  let responses = Array.map (fun c -> rev_array c.received) conns in
  (* measured responses: status, estimate precision, timings *)
  let measured = ref 0 and plans = ref 0 and trials = ref 0 in
  let net_overhead = ref [] in
  Array.iteri
    (fun i (c : client) ->
      let latencies = rev_array c.latencies in
      Array.iteri
        (fun j line ->
          if j >= warm.(i) then begin
            let p = parse ~estimate:(kind = Inputs.Estimate) line in
            incr measured;
            if not p.ok then incr failed;
            if p.cache <> None then begin
              incr plans;
              net_overhead := (latencies.(j - warm.(i)) -. p.seconds) :: !net_overhead
            end;
            trials := !trials + p.trials
          end)
        responses.(i))
    conns;
  failed := !failed + replay_mismatches exe kind ~dir streams responses;
  let latencies =
    Stats.sorted (Array.concat (Array.to_list (Array.map (fun c -> rev_array c.latencies) conns)))
  in
  let n = Array.length latencies in
  let m = Stats.metric in
  {
    metrics =
      [
        m "setup_s" "s" (Stats.median (Array.of_list !setup_times)) ~samples:setups;
        m "plans_per_s" "plans/s" (float !plans /. wall) ~samples:!plans;
        m "req_per_s" "1/s" (float !measured /. wall) ~samples:!measured;
        m "latency_p50_ms" "ms" (1e3 *. Stats.percentile latencies 0.5) ~samples:n;
        m "latency_p99_ms" "ms" (1e3 *. Stats.percentile latencies 0.99) ~samples:n;
        m "peak_rss_mb" "MB" rss ~samples:1;
      ]
      @
      if kind = Inputs.Estimate then
        [ m "trials_per_s" "trials/s" (float !trials /. wall) ~samples:!measured ]
      else [];
    attempted = !attempted;
    failed = !failed;
    streams;
    responses;
    net_overhead = Array.of_list !net_overhead;
  }

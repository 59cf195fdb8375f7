(* The determinism-under-concurrency test wall for the TCP front end.

   Everything here holds one promise: a client's deterministic response
   bytes are a pure function of its own request stream.  Not of the
   worker count, not of what other clients do concurrently, not of the
   shared compile store's temperature.  The
   reference for every stream is the stdin session loop (the same
   Session code the TCP server runs), so single-client TCP equivalence
   is golden-enforced, and every concurrent client is held to its own
   single-client reference run.

   The robustness half feeds the server garbage — truncated JSON,
   invalid UTF-8, oversized lines, mid-line disconnects, a flooding
   client — and checks the blast radius is exactly one session. *)

module History = Vqc_device.History
module Topologies = Vqc_device.Topologies
module Epoch = Vqc_service.Epoch
module Service = Vqc_service.Service
module Session = Vqc_serve_net.Session
module Server = Vqc_serve_net.Server
module Load = Vqc_testkit.Load
module Metrics = Vqc_obs.Metrics
module Diagnostic = Vqc_diag.Diagnostic

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let ln = String.length needle and lh = String.length haystack in
  let rec at i =
    i + ln <= lh && (String.sub haystack i ln = needle || at (i + 1))
  in
  ln > 0 && at 0

(* Small workloads on the 5-qubit device keep each compile cheap: the
   wall exercises sessions and interleavings, not the mapper. *)
let epochs () =
  Epoch.of_history ~name:"Q5" ~coupling:Topologies.ibm_q5_tenerife
    (History.generate ~days:3 ~seed:5 ~coupling:Topologies.ibm_q5_tenerife 5)

let workloads = [| "bv-3"; "bv-4"; "GHZ-3"; "TriSwap" |]

let req id workload =
  Printf.sprintf {|{"id":%d,"workload":"%s"}|} id workload

(* Per-client stream: compiles, repeats (cache hits), a flush, an epoch
   advance and an epoch pin mid-stream (so drift migration acks — whose
   census is deterministic — interleave with compiles), one parse
   error, and a PST rider on a plan that has lived through both epoch
   moves.  Clients start at different rotation offsets so concurrent
   streams collide on the shared store without being identical. *)
let stream index =
  let w j = workloads.((index + j) mod Array.length workloads) in
  [
    req 1 (w 0);
    req 2 (w 1);
    {|{"op":"flush"}|};
    req 3 (w 2);
    req 4 (w 0);
    {|{"op":"advance_epoch"}|};
    req 5 (w 0);
    req 6 (w 3);
    Printf.sprintf {|{"op":"set_epoch","epoch":%d}|} (index mod 3);
    req 7 (w 1);
    "{not json";
    req 8 (w 2);
    Printf.sprintf
      {|{"id":9,"workload":"%s","precision":5e-3,"mc_seed":%d}|} (w 0) index;
  ]

(* ---- nd stripping --------------------------------------------------- *)

(* Drop the [,"nd":{...}] member from a rendered response line.  The
   "nd" object is where every run-varying fact lives (latency, cache
   temperature); the rest of the line is the deterministic contract. *)
let strip_nd line =
  let marker = {|,"nd":{|} in
  let mlen = String.length marker in
  let len = String.length line in
  let rec find i =
    if i + mlen > len then None
    else if String.sub line i mlen = marker then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
    let rec close i depth =
      match line.[i] with
      | '{' -> close (i + 1) (depth + 1)
      | '}' -> if depth = 1 then i else close (i + 1) (depth - 1)
      | _ -> close (i + 1) depth
    in
    let last = close (start + mlen) 1 in
    String.sub line 0 start ^ String.sub line (last + 1) (len - last - 1)

let deterministic lines = List.map strip_nd lines

(* ---- reference runs over the stdin loop ----------------------------- *)

let with_temp_file f =
  let path = Filename.temp_file "vqc_serve_net" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some line -> go (line :: acc)
        | None -> List.rev acc
      in
      go [])

(* The golden for a stream: Session.run over file channels — exactly
   the stdin front end of vqc-serve, minus the terminal. *)
let stdin_run ?(session = Session.default_config) ~config lines =
  with_temp_file (fun in_path ->
      with_temp_file (fun out_path ->
          Out_channel.with_open_text in_path (fun oc ->
              List.iter
                (fun line ->
                  Out_channel.output_string oc line;
                  Out_channel.output_char oc '\n')
                lines);
          let outcome =
            Service.with_service ~config (epochs ()) (fun service ->
                In_channel.with_open_text in_path (fun ic ->
                    Out_channel.with_open_text out_path (fun oc ->
                        let outcome = Session.run ~config:session service ic oc in
                        flush oc;
                        outcome)))
          in
          (outcome, read_lines out_path)))

(* ---- server scaffolding --------------------------------------------- *)

let base_config ~jobs =
  {
    Service.default_config with
    Service.jobs;
    cache_capacity = 8;
    (* non-wholesale drift: epoch moves run the selective retention
       pipeline, whose kept/dropped census lands in deterministic
       Control_ack fields *)
    drift = Some { Vqc_drift.Retention.threshold = 0.05 };
  }

let with_server ?(clients_max = 16) ?(session = Session.default_config)
    ~jobs f =
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          Server.clients_max;
          session;
          service = base_config ~jobs;
          store_capacity = 64;
        }
      (epochs ())
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f (Server.port server))

(* Raw socket for the robustness tests: send exact bytes (including
   broken ones Load.client would never produce), read exact lines. *)
let with_raw_client port f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      f fd)

let send fd text = ignore (Unix.write_substring fd text 0 (String.length text))

let read_all_lines fd =
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr fd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* ---- single-client TCP = stdin, golden-enforced --------------------- *)

let test_tcp_matches_stdin () =
  let lines = stream 0 in
  let _, golden = stdin_run ~config:(base_config ~jobs:1) lines in
  with_server ~jobs:1 (fun port ->
      let result = Load.client ~port ~requests:lines () in
      check_int "one response per request" (List.length lines)
        (List.length result.Load.lines);
      List.iteri
        (fun i (expected, actual) ->
          check_string
            (Printf.sprintf "line %d: TCP = stdin" i)
            expected actual)
        (List.combine (deterministic golden)
           (deterministic result.Load.lines)))

(* ---- multi-client determinism wall ---------------------------------- *)

(* Every concurrent client's stream must replay to the bytes of its own
   single-client reference, for every combination of worker count and
   client count.  The goldens are computed once at jobs 1: equality
   across the matrix IS the jobs invariance claim. *)
let test_multi_client_determinism () =
  let goldens =
    Array.init 64 (fun index ->
        deterministic
          (snd (stdin_run ~config:(base_config ~jobs:1)
                  (stream index))))
  in
  List.iter
    (fun (jobs, clients) ->
      with_server ~clients_max:64 ~jobs (fun port ->
          let results =
            Load.run ~port ~clients ~requests:(fun index -> stream index) ()
          in
          Array.iteri
            (fun index result ->
              match result with
              | Error e ->
                Alcotest.failf "jobs=%d clients=%d client %d: %s" jobs
                  clients index e
              | Ok { Load.lines; _ } ->
                check
                  (Printf.sprintf
                     "jobs=%d clients=%d client %d matches its solo golden"
                     jobs clients index)
                  true
                  (deterministic lines = goldens.(index)))
            results))
    [
      (1, 2);
      (4, 8);
      (1, 8);
      (4, 2);
      (* 64 sessions churn fd numbers fast enough to expose a session
         that closes its descriptor twice *)
      (2, 64);
    ]

(* ---- backpressure renders identically on both front ends ------------ *)

let test_queue_full_same_bytes () =
  (* queue_limit 2, batch larger than the stream: requests 3..5 meet a
     full queue and must be rejected with the VQC130 code — identically
     on stdin and TCP *)
  let config =
    { (base_config ~jobs:1) with Service.queue_limit = 2 }
  in
  let session = { Session.default_config with Session.batch = 100 } in
  let lines = List.init 5 (fun i -> req (i + 1) "bv-3") in
  let _, golden = stdin_run ~session ~config lines in
  let rejected =
    List.filter (fun line -> contains line "\"status\":\"rejected\"")
      golden
  in
  check_int "three rejections" 3 (List.length rejected);
  List.iter
    (fun line ->
      check "rejection carries the queue-full code" true
        (contains line
           (Printf.sprintf "\"code\":%S" Diagnostic.code_queue_full)))
    rejected;
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          Server.session = session;
          service = config;
          store_capacity = 64;
        }
      (epochs ())
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let result = Load.client ~port:(Server.port server) ~requests:lines () in
      check "queue-full bytes identical on TCP" true
        (deterministic result.Load.lines = deterministic golden))

(* ---- connection-level load shedding --------------------------------- *)

let test_server_full_rejection () =
  with_server ~clients_max:1 ~jobs:1 (fun port ->
      with_raw_client port (fun occupant ->
          (* prove the occupant's session is live before crowding it *)
          send occupant (req 1 "bv-3" ^ "\n");
          send occupant "{\"op\":\"flush\"}\n";
          let ic = Unix.in_channel_of_descr occupant in
          let first = input_line ic in
          check "occupant is served" true
            (contains first "\"status\":\"ok\"");
          let overflow = with_raw_client port read_all_lines in
          match overflow with
          | [ line ] ->
            check "server-full reason" true
              (contains line "\"reason\":\"server_full\"");
            check "server-full code" true
              (contains line
                 (Printf.sprintf "\"code\":%S" Diagnostic.code_server_full))
          | lines ->
            Alcotest.failf "expected exactly one rejection line, got %d"
              (List.length lines)))

(* A session frees its slot before its socket closes: with room for one
   client, each of a run of clients that reads EOF and reconnects at
   once must be served, never shed as server_full. *)
let test_slot_recycling () =
  let rejected = Metrics.counter "serve.net.rejected" in
  with_server ~clients_max:1 ~jobs:1 (fun port ->
      let before = Metrics.counter_value rejected in
      for i = 1 to 30 do
        match
          with_raw_client port (fun fd ->
              send fd (req i "bv-3" ^ "\n");
              read_all_lines fd)
        with
        | [ line ] ->
          check (Printf.sprintf "client %d served" i) true
            (contains line "\"status\":\"ok\"")
        | lines ->
          Alcotest.failf "client %d: expected one line, got %d" i
            (List.length lines)
      done;
      check_int "no connection shed" before (Metrics.counter_value rejected))

(* ---- robustness: garbage kills one session, not the server ---------- *)

let test_fuzz_blast_radius () =
  let session = { Session.batch = 2; max_line = 128 } in
  let golden =
    deterministic
      (snd (stdin_run ~session ~config:(base_config ~jobs:1)
              (stream 0)))
  in
  with_server ~session ~jobs:2 (fun port ->
      (* a stuck client mid-line, held open across everything below: its
         unfinished garbage must not delay or corrupt anyone *)
      with_raw_client port (fun stuck ->
          send stuck "{\"id\":99,\"workl";
          (* truncated JSON: a Failed response, then normal service;
             an object that fails request parsing keeps its id *)
          let truncated =
            with_raw_client port (fun fd ->
                send fd "{\"id\":1,\n";
                send fd {|{"id":8,"workload":"bv-4","mc_seed":"x"}|};
                send fd "\n{\"id\":11,\"op\":\"set_epoch\"}\n";
                send fd (req 2 "bv-3" ^ "\n");
                read_all_lines fd)
          in
          (match truncated with
          | [ failed; bad_member; bad_op; served ] ->
            check "truncated line fails without an id" true
              (contains failed "\"status\":\"error\""
              && not (contains failed "\"id\""));
            check_string "bad member echoes its id"
              {|{"id":8,"status":"error","error":"\"mc_seed\" must be a number"}|}
              bad_member;
            check_string "bad op echoes its id"
              {|{"id":11,"status":"error","error":"set_epoch needs an integer \"epoch\" field"}|}
              bad_op;
            check "same session still serves" true
              (contains served "\"status\":\"ok\"")
          | lines ->
            Alcotest.failf "truncated: expected 4 lines, got %d"
              (List.length lines));
          (* invalid UTF-8 bytes: a Failed response, session survives *)
          let invalid =
            with_raw_client port (fun fd ->
                send fd "\xff\xfe{\n";
                read_all_lines fd)
          in
          check_int "invalid UTF-8 answers one line" 1 (List.length invalid);
          check "invalid UTF-8 fails cleanly" true
            (contains (List.hd invalid) "\"status\":\"error\"");
          (* oversized line: accepted work is answered, then a typed
             error, then the session closes *)
          let oversized =
            with_raw_client port (fun fd ->
                send fd (req 1 "bv-3" ^ "\n");
                send fd (String.make 300 'x' ^ "\n");
                send fd (req 2 "bv-3" ^ "\n");
                read_all_lines fd)
          in
          (match oversized with
          | [ served; refused ] ->
            check "accepted request answered before dying" true
              (contains served "\"status\":\"ok\"");
            check "oversized line reported" true
              (contains refused "exceeds the 128-byte limit")
          | lines ->
            Alcotest.failf "oversized: expected 2 lines, got %d"
              (List.length lines));
          (* mid-line disconnect: the partial line fails like any other
             garbage, the server moves on *)
          let partial =
            with_raw_client port (fun fd ->
                send fd "{\"id\":7";
                read_all_lines fd)
          in
          check_int "mid-line disconnect answers one line" 1
            (List.length partial);
          check "partial line fails cleanly" true
            (contains (List.hd partial) "\"status\":\"error\"");
          (* and through all of it, a well-behaved client still gets its
             exact golden bytes *)
          let clean = Load.client ~port ~requests:(stream 0) () in
          check "well-behaved client unharmed by the chaos" true
            (deterministic clean.Load.lines = golden)))

(* ---- resource exhaustion -------------------------------------------- *)

(* Under a 24-descriptor limit, 40 connected clients exhaust the
   server's descriptors and accept fails with EMFILE.  That must stall
   the accept loop, not end it: once the crowd hangs up, the next client
   is served.  The server runs as its own process, so the limit binds it
   alone. *)
let test_accept_survives_emfile () =
  let banner_fd, stderr_fd = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process "/bin/sh"
      [|
        "/bin/sh";
        "-c";
        "ulimit -n 24; exec ../bin/serve.exe --tcp 0 --days 2";
      |]
      Unix.stdin Unix.stdout stderr_fd
  in
  Unix.close stderr_fd;
  let banner = Unix.in_channel_of_descr banner_fd in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr banner)
    (fun () ->
      let port =
        Scanf.sscanf (input_line banner) "vqc-serve: listening on 127.0.0.1:%d"
          Fun.id
      in
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        fd
      in
      let crowd = List.init 40 (fun _ -> connect ()) in
      (* let the server accept until it runs out of descriptors *)
      Unix.sleepf 0.5;
      List.iter Unix.close crowd;
      match
        with_raw_client port (fun fd ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
            send fd (req 1 "bv-3" ^ "\n");
            read_all_lines fd)
      with
      | [ line ] ->
        check "served after EMFILE" true (contains line "\"status\":\"ok\"")
      | lines -> Alcotest.failf "expected one line, got %d" (List.length lines))

let () =
  Alcotest.run "serve_net"
    [
      ( "determinism",
        [
          Alcotest.test_case "single-client TCP = stdin" `Quick
            test_tcp_matches_stdin;
          Alcotest.test_case "concurrent clients match solo goldens" `Slow
            test_multi_client_determinism;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "queue-full bytes identical on both front ends"
            `Quick test_queue_full_same_bytes;
          Alcotest.test_case "server-full connection shedding" `Quick
            test_server_full_rejection;
          Alcotest.test_case "sequential clients reuse the one slot" `Quick
            test_slot_recycling;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "garbage kills one session, not the server"
            `Slow test_fuzz_blast_radius;
          Alcotest.test_case "accept loop survives EMFILE" `Quick
            test_accept_survives_emfile;
        ] );
    ]

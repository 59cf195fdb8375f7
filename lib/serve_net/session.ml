module Service = Vqc_service.Service
module Epoch = Vqc_service.Epoch
module Protocol = Vqc_service.Protocol

type config = {
  batch : int;
  max_line : int;
}

let default_config = { batch = 16; max_line = 1 lsl 20 }

type outcome =
  | Eof
  | Oversized of int
  | Disconnected

(* Like [input_line] but refuses lines beyond [max_line] bytes: an
   unbounded reader lets one client pin the session's memory with a
   single endless line.  Matches [input_line] at EOF — a final partial
   line (mid-line disconnect) is still delivered, and then fails JSON
   parsing like any other garbage. *)
type read =
  | Line of string
  | Too_long
  | End

let input_bounded_line ic ~max_line =
  let buffer = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> Line (Buffer.contents buffer)
    | c ->
      if Buffer.length buffer >= max_line then Too_long
      else begin
        Buffer.add_char buffer c;
        go ()
      end
    | exception End_of_file ->
      if Buffer.length buffer = 0 then End else Line (Buffer.contents buffer)
  in
  go ()

(* Responses must leave in input order, but rejections and parse errors
   are known immediately while accepted requests wait for the flush.
   Each input line claims a slot; flushing fills the queued slots from
   the service's responses (both are in admission order) and writes. *)
type slot =
  | Ready of Protocol.response
  | Queued

let run ?(config = default_config) service ic oc =
  let slots = ref [] in
  let queued = ref 0 in
  let emit response =
    output_string oc (Protocol.render response);
    output_char oc '\n'
  in
  let flush_slots () =
    let responses = ref (Service.flush service) in
    List.iter
      (fun slot ->
        match slot with
        | Ready response -> emit response
        | Queued -> begin
          match !responses with
          | response :: rest ->
            responses := rest;
            emit response
          | [] -> assert false
        end)
      (List.rev !slots);
    slots := [];
    queued := 0;
    flush oc
  in
  let ack ?migration op =
    emit
      (Protocol.Control_ack
         { op; epoch = Epoch.current (Service.epoch_manager service); migration });
    flush oc
  in
  let rec loop () =
    match input_bounded_line ic ~max_line:config.max_line with
    | End ->
      flush_slots ();
      Eof
    | Too_long ->
      (* the tail of the oversized line is unread, so the stream is no
         longer line-aligned: answer what was already accepted, report,
         and die — the caller closes the connection *)
      flush_slots ();
      emit
        (Protocol.Failed
           {
             id = None;
             error =
               Printf.sprintf
                 "input line exceeds the %d-byte limit; closing session"
                 config.max_line;
           });
      flush oc;
      Oversized config.max_line
    | Line line when String.trim line = "" -> loop ()
    | Line line ->
      (match Protocol.parse_line line with
      | Error message ->
        let id = Protocol.line_id line in
        slots := Ready (Protocol.Failed { id; error = message }) :: !slots
      | Ok (Protocol.Control Protocol.Flush) ->
        flush_slots ();
        ack "flush"
      | Ok (Protocol.Control Protocol.Advance_epoch) ->
        (* plans queued against the old epoch compile against it *)
        flush_slots ();
        let _, migration = Service.advance_epoch service in
        ack ~migration "advance_epoch"
      | Ok (Protocol.Control (Protocol.Set_epoch epoch)) ->
        flush_slots ();
        (match Service.set_epoch service epoch with
        | migration -> ack ~migration "set_epoch"
        | exception Invalid_argument message ->
          emit (Protocol.Failed { id = None; error = message });
          flush oc)
      | Ok (Protocol.Compile request) -> begin
        match Service.submit service request with
        | Ok () ->
          slots := Queued :: !slots;
          incr queued;
          if !queued >= config.batch then flush_slots ()
        | Error reason ->
          slots :=
            Ready (Protocol.Rejected { id = request.Protocol.id; reason })
            :: !slots
      end);
      loop ()
  in
  (* a client that vanishes mid-write (broken pipe, reset) ends the
     session, not the server — SIGPIPE is ignored by Server.start, so
     the failure surfaces as a Sys_error here *)
  try loop () with Sys_error _ -> Disconnected

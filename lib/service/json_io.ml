module Json = Vqc_obs.Json

exception Invalid of string

let utf8_add buffer code =
  if code < 0x80 then Buffer.add_char buffer (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buffer (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buffer (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buffer (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buffer (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_exn text =
  let pos = ref 0 in
  let len = String.length text in
  let fail message = raise (Invalid (Printf.sprintf "%s at %d" message !pos)) in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance ()
    done
  in
  let literal word value =
    if !pos + String.length word <= len
       && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > len then fail "truncated \\u escape";
    let value = ref 0 in
    for _ = 1 to 4 do
      let digit =
        match peek () with
        | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
        | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
        | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      value := (!value lsl 4) lor digit;
      advance ()
    done;
    !value
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' ->
          Buffer.add_char buffer '"';
          advance ()
        | Some '\\' ->
          Buffer.add_char buffer '\\';
          advance ()
        | Some '/' ->
          Buffer.add_char buffer '/';
          advance ()
        | Some 'n' ->
          Buffer.add_char buffer '\n';
          advance ()
        | Some 'r' ->
          Buffer.add_char buffer '\r';
          advance ()
        | Some 't' ->
          Buffer.add_char buffer '\t';
          advance ()
        | Some 'b' ->
          Buffer.add_char buffer '\b';
          advance ()
        | Some 'f' ->
          Buffer.add_char buffer '\012';
          advance ()
        | Some 'u' ->
          advance ();
          let code = hex4 () in
          if code >= 0xD800 && code <= 0xDBFF then begin
            (* high surrogate: the low half must follow immediately *)
            if not
                 (!pos + 1 < len
                 && text.[!pos] = '\\'
                 && text.[!pos + 1] = 'u')
            then fail "unpaired surrogate";
            pos := !pos + 2;
            let low = hex4 () in
            if low < 0xDC00 || low > 0xDFFF then fail "unpaired surrogate";
            utf8_add buffer
              (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
          end
          else if code >= 0xDC00 && code <= 0xDFFF then
            fail "unpaired surrogate"
          else utf8_add buffer code
        | _ -> fail "bad escape");
        loop ()
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some c ->
        Buffer.add_char buffer c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  (* RFC 8259: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
  let parse_number () =
    let start = !pos in
    let at_digit () =
      match peek () with Some c -> '0' <= c && c <= '9' | None -> false
    in
    let digits () =
      if not (at_digit ()) then fail "bad number";
      while at_digit () do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    if peek () = Some '0' then begin
      advance ();
      if at_digit () then fail "leading zero"
    end
    else digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    (* past the grammar, int_of_string only accepts plain decimal
       integers: a fraction, an exponent or an int overflow reads as a
       float *)
    let s = String.sub text start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> Json.Int i
    | None -> Json.Float (float_of_string s)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Json.Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, value) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, value) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Json.Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Json.List []
      end
      else begin
        let rec items acc =
          let value = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (value :: acc)
          | Some ']' ->
            advance ();
            List.rev (value :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Json.List (items [])
      end
    | Some '"' -> Json.String (parse_string ())
    | Some 't' -> literal "true" (Json.Bool true)
    | Some 'f' -> literal "false" (Json.Bool false)
    | Some 'n' -> literal "null" Json.Null
    | Some _ -> parse_number ()
  in
  let value = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  value

let parse text =
  match parse_exn text with
  | value -> Ok value
  | exception Invalid message -> Error message

let member key json =
  match json with
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_value = function Json.String s -> Some s | _ -> None

let int_value = function
  | Json.Int i -> Some i
  | Json.Float f when Float.is_integer f && Float.abs f <= 2. ** 52. ->
    Some (int_of_float f)
  | _ -> None

let float_value = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

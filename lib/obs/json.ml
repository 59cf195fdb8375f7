type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

(* Shortest of the fixed-precision renderings that round-trips, so the
   common cases stay readable (0.5, not 0.50000000000000000).  A
   rendering without '.' or 'e' (2^53 prints as 9007199254740992) gets
   a ".0" so a reader still sees a float, not an int. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (function '.' | 'e' -> true | _ -> false) s then s
    else s ^ ".0"

let rec write buffer json =
  match json with
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f ->
    (* JSON has no inf/nan literals *)
    if Float.is_finite f then Buffer.add_string buffer (float_repr f)
    else Buffer.add_string buffer "null"
  | String s -> escape buffer s
  | List items ->
    Buffer.add_char buffer '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buffer ',';
        write buffer item)
      items;
    Buffer.add_char buffer ']'
  | Obj fields ->
    Buffer.add_char buffer '{';
    List.iteri
      (fun i (key, value) ->
        if i > 0 then Buffer.add_char buffer ',';
        escape buffer key;
        Buffer.add_char buffer ':';
        write buffer value)
      fields;
    Buffer.add_char buffer '}'

let to_string json =
  let buffer = Buffer.create 256 in
  write buffer json;
  Buffer.contents buffer

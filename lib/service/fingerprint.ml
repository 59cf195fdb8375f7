(* FNV-1a, 64-bit: digest = fold (xor byte, * prime) over the bytes.
   Computed in Int64 so the result is identical on 32- and 64-bit
   targets (OCaml's native int is 63-bit). *)

let fnv_offset_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let of_string s =
  let digest = ref fnv_offset_basis in
  String.iter
    (fun c ->
      digest := Int64.logxor !digest (Int64.of_int (Char.code c));
      digest := Int64.mul !digest fnv_prime)
    s;
  Printf.sprintf "%016Lx" !digest

let circuit c = of_string (Vqc_circuit.Qasm.to_string c)
let calibration c = of_string (Vqc_device.Calibration.to_string c)

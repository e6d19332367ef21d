(* The splitmix64 state lives unboxed in an 8-byte buffer: a mutable
   [int64] record field would box a fresh int64 on every draw. With the
   draw functions inlined, [bits64], [int], [float], [bool] and [chance]
   allocate nothing at their call sites. *)
type t = Bytes.t

(* unchecked: every [t] is 8 bytes long *)
external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let[@inline] int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod n

let[@inline] float t =
  (* 53 bits convert exactly through [int], inline, where [Int64.to_float]
     is a C call; scaling by 2^-53 is exact, so it equals dividing by
     2^53 *)
  Float.of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11)) *. 0x1p-53

let[@inline] bool t = Int64.logand (bits64 t) 1L = 1L
let[@inline] chance t p = float t < p

let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let subset t l = List.filter (fun _ -> bool t) l

type entry = {
  time : float;
  node : Pid.t option;
  tag : string;
  detail : string;
}

(* Circular buffer: [buf] holds [len] entries starting at [start]
   (chronological order, wrapping). Storage grows geometrically up to
   [limit]; once full, recording overwrites the oldest entry, so the
   trace never holds more than [limit] entries. *)
type t = {
  limit : int;
  mutable buf : entry array;
  mutable start : int;
  mutable len : int;
}

let create ?(limit = 100_000) () = { limit; buf = [||]; start = 0; len = 0 }

let record t ~time ?node ~tag detail =
  if t.limit > 0 then begin
    let e = { time; node; tag; detail } in
    let cap = Array.length t.buf in
    if t.len < cap then begin
      t.buf.((t.start + t.len) mod cap) <- e;
      t.len <- t.len + 1
    end
    else if cap < t.limit then begin
      let cap' = min t.limit (max 16 (2 * cap)) in
      let buf' = Array.make cap' e in
      for i = 0 to t.len - 1 do
        buf'.(i) <- t.buf.((t.start + i) mod cap)
      done;
      buf'.(t.len) <- e;
      t.buf <- buf';
      t.start <- 0;
      t.len <- t.len + 1
    end
    else begin
      (* full at [limit]: evict the oldest *)
      t.buf.(t.start) <- e;
      t.start <- (t.start + 1) mod cap
    end
  end

let iter t f =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod cap)
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun e -> acc := f !acc e);
  !acc

let length t = t.len
let entries t = List.rev (fold t ~init:[] (fun acc e -> e :: acc))

let with_tag t tag =
  List.rev
    (fold t ~init:[] (fun acc e ->
         if String.equal e.tag tag then e :: acc else acc))

let count t tag =
  fold t ~init:0 (fun acc e -> if String.equal e.tag tag then acc + 1 else acc)

let clear t =
  t.buf <- [||];
  t.start <- 0;
  t.len <- 0

let pp_entry fmt e =
  let pp_node fmt = function
    | None -> Format.fprintf fmt "-"
    | Some p -> Pid.pp fmt p
  in
  Format.fprintf fmt "[%8.2f] p%a %s: %s" e.time pp_node e.node e.tag e.detail

let entry_json e =
  Printf.sprintf "{\"time\":%s,\"node\":%s,\"tag\":\"%s\",\"detail\":\"%s\"}"
    (Telemetry.Export.json_float e.time)
    (match e.node with Some p -> string_of_int p | None -> "null")
    (Telemetry.Export.json_escape e.tag)
    (Telemetry.Export.json_escape e.detail)

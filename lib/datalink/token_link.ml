type 'a msg =
  | Data of { seq : int; payload : 'a }
  | Ack of { seq : int }

module Sender = struct
  type 'a t = {
    capacity : int;
    modulus : int;
    mutable seq : int;
    mutable payload : 'a;
    mutable next_payload : 'a option;
    mutable acks : int;
    mutable tokens : int;
  }

  let create ~capacity payload =
    if capacity <= 0 then invalid_arg "Token_link.Sender.create: capacity";
    {
      capacity;
      modulus = (4 * capacity) + 4;
      seq = 0;
      payload;
      next_payload = None;
      acks = 0;
      tokens = 0;
    }

  let modulus t = t.modulus
  let offer t p = t.next_payload <- Some p
  let on_tick t = Data { seq = t.seq; payload = t.payload }

  let on_msg t = function
    | Data _ -> `Waiting (* a sender endpoint ignores data packets *)
    | Ack { seq } ->
      if seq = t.seq then begin
        t.acks <- t.acks + 1;
        (* more than the round-trip capacity of acks cannot all be stale *)
        if t.acks > 2 * t.capacity then begin
          t.seq <- (t.seq + 1) mod t.modulus;
          t.acks <- 0;
          t.tokens <- t.tokens + 1;
          (match t.next_payload with
          | Some p ->
            t.payload <- p;
            t.next_payload <- None
          | None -> ());
          `Token_returned
        end
        else `Waiting
      end
      else `Waiting

  let tokens t = t.tokens
  let seq t = t.seq

  let corrupt t ~seq ~acks =
    t.seq <- ((seq mod t.modulus) + t.modulus) mod t.modulus;
    t.acks <- acks
end

module Receiver = struct
  type 'a t = {
    window_size : int;
    mutable window : int list; (* recently delivered seqs, newest first *)
    mutable delivered : int;
  }

  let create ~capacity () =
    if capacity <= 0 then invalid_arg "Token_link.Receiver.create: capacity";
    { window_size = (2 * capacity) + 2; window = []; delivered = 0 }

  let truncate n l =
    let rec go n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: go (n - 1) rest
    in
    go n l

  let on_msg t = function
    | Ack _ -> (`Ignore, None)
    | Data { seq; payload } ->
      let ack = Some (Ack { seq }) in
      if List.mem seq t.window then (`Duplicate, ack)
      else begin
        t.window <- truncate t.window_size (seq :: t.window);
        t.delivered <- t.delivered + 1;
        (`Deliver payload, ack)
      end

  let delivered t = t.delivered
  let corrupt t ~window = t.window <- window
end

type stats = {
  mutable sent : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable duplicated : int;
}

(* Fixed-capacity ring buffer. [buf] stays [||] until the first packet
   arrives (there is no manifest dummy value for ['a]); afterwards it is a
   [cap]-slot array and the queue occupies [len] slots starting at [head].
   Slot [i] of the queue (head-first) lives at [buf.((head + i) mod cap)].
   Sends and overflow-victim replacement are O(1) and allocation-free;
   removal at a queue index shifts the shorter side of the ring (at most
   cap/2 slots, still allocation-free). Vacated slots keep their last
   packet until overwritten — packets are small protocol messages, so the
   retained reference is harmless. *)
type 'a t = {
  cap : int;
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  st : stats;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  {
    cap = capacity;
    buf = [||];
    head = 0;
    len = 0;
    st = { sent = 0; dropped = 0; delivered = 0; duplicated = 0 };
  }

let capacity t = t.cap
let length t = t.len
let is_empty t = t.len = 0
let stats t = t.st

let slot t i =
  let j = t.head + i in
  if j >= t.cap then j - t.cap else j

let ensure_buf t pkt = if Array.length t.buf = 0 then t.buf <- Array.make t.cap pkt

let send t rng pkt =
  t.st.sent <- t.st.sent + 1;
  if t.len < t.cap then begin
    ensure_buf t pkt;
    t.buf.(slot t t.len) <- pkt;
    t.len <- t.len + 1
  end
  else begin
    t.st.dropped <- t.st.dropped + 1;
    if Rng.bool rng then begin
      (* replace a random queued packet by the new one *)
      let victim = Rng.int rng t.len in
      t.buf.(slot t victim) <- pkt
    end
    (* else: the new packet itself is omitted *)
  end

(* Remove the [n]-th queued packet (head-first), preserving the relative
   order of the others — the exact semantics of the previous list
   representation, which seeded runs depend on. *)
let remove_nth t n =
  let x = t.buf.(slot t n) in
  if n < t.len - 1 - n then begin
    (* fewer packets before [n]: shift the prefix towards the tail *)
    for i = n downto 1 do
      t.buf.(slot t i) <- t.buf.(slot t (i - 1))
    done;
    t.head <- slot t 1
  end
  else
    (* fewer packets after [n]: shift the suffix towards the head *)
    for i = n to t.len - 2 do
      t.buf.(slot t i) <- t.buf.(slot t (i + 1))
    done;
  t.len <- t.len - 1;
  x

let take_nonempty t rng =
  if t.len = 0 then invalid_arg "Channel.take_nonempty: empty channel";
  let pkt = remove_nth t (Rng.int rng t.len) in
  t.st.delivered <- t.st.delivered + 1;
  pkt

let duplicate_head t =
  if t.len > 0 && t.len < t.cap then begin
    t.buf.(slot t t.len) <- t.buf.(t.head);
    t.len <- t.len + 1;
    t.st.duplicated <- t.st.duplicated + 1
  end

let drop_one t rng =
  if t.len > 0 then begin
    let idx = Rng.int rng t.len in
    ignore (remove_nth t idx);
    t.st.dropped <- t.st.dropped + 1
  end

let clear t =
  t.head <- 0;
  t.len <- 0

let corrupt t pkts =
  clear t;
  List.iter
    (fun pkt ->
      if t.len < t.cap then begin
        ensure_buf t pkt;
        t.buf.(t.len) <- pkt;
        t.len <- t.len + 1
      end)
    pkts

let contents t = List.init t.len (fun i -> t.buf.(slot t i))

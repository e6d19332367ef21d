open Sim

(* Hashconsing for the descriptors recSA gossips every round. The tables are
   domain-local (the harness Pool runs experiment cells on several domains; a
   shared table would race and a lock would serialize the hot path) and
   deliberately NOT weak: OCaml 5 processes weak arrays and ephemerons in
   stop-the-world GC phases, which collapses throughput as soon as worker
   domains exist. Instead each table is bounded: when it reaches [cap]
   entries it is reset, which only costs future misses. Interning is a pure
   canonicalization — a missed hit only costs the structural comparison the
   caller would have done anyway — so determinism is unaffected. *)

let cap = 8192

(* In the simulator, messages travel by reference, so the descriptors
   arriving at [intern] are very often the canonical object itself (the
   sender already interned them). A tiny MRU ring of recently returned
   canonical values turns that case into a handful of pointer compares,
   skipping the O(|set|) hash and bucket walk entirely. *)
let mru_size = 8

module Make (H : Hashtbl.HashedType) = struct
  module T = Hashtbl.Make (H)

  type state = { tbl : H.t T.t; mru : H.t option array; mutable next : int }

  let key =
    Domain.DLS.new_key (fun () ->
        { tbl = T.create 256; mru = Array.make mru_size None; next = 0 })

  let intern x =
    let st = Domain.DLS.get key in
    let rec hit i =
      if i >= mru_size then false
      else
        match st.mru.(i) with Some y when y == x -> true | _ -> hit (i + 1)
    in
    if hit 0 then x
    else begin
      let y =
        match T.find_opt st.tbl x with
        | Some y -> y
        | None ->
          if T.length st.tbl >= cap then T.reset st.tbl;
          T.add st.tbl x x;
          x
      in
      st.mru.(st.next) <- Some y;
      st.next <- (st.next + 1) mod mru_size;
      y
    end
end

let set_hash s = Pid.Set.fold (fun p h -> (h * 31) + p + 1) s 0

module Pid_set_table = Make (struct
  type t = Pid.Set.t

  let equal = Pid.equal_sets
  let hash = set_hash
end)

let pid_set = Pid_set_table.intern

open Sim

module type SYSTEM = sig
  val is_quorum : config:Pid.Set.t -> Pid.Set.t -> bool
  val name : string
end

let majority_threshold n = (n / 2) + 1

module Majority = struct
  let name = "majority"

  let is_quorum ~config s =
    let present = Pid.Set.cardinal (Pid.Set.inter config s) in
    present >= majority_threshold (Pid.Set.cardinal config)
end

module Grid = struct
  let name = "grid"

  (* Arrange members in ascending order into a grid with ⌈√v⌉ columns. A
     quorum must contain one full row and at least one element from every
     row (row-column cover), guaranteeing pairwise intersection. *)
  let layout config =
    let members = Array.of_list (Pid.Set.elements config) in
    let v = Array.length members in
    let cols = max 1 (int_of_float (ceil (sqrt (float_of_int v)))) in
    let rows = (v + cols - 1) / cols in
    (members, rows, cols)

  let is_quorum ~config s =
    let v = Pid.Set.cardinal config in
    if v = 0 then false
    else if v <= 2 then Majority.is_quorum ~config s
    else begin
      let members, rows, cols = layout config in
      let v = Array.length members in
      let in_s r c =
        let idx = (r * cols) + c in
        idx < v && Pid.Set.mem members.(idx) s
      in
      let row_len r = min cols (v - (r * cols)) in
      let full_row r =
        let len = row_len r in
        len > 0
        &&
        let rec go c = c >= len || (in_s r c && go (c + 1)) in
        go 0
      in
      let touches_row r =
        let len = row_len r in
        let rec go c = c < len && (in_s r c || go (c + 1)) in
        go 0
      in
      let rec has_full r = r < rows && (full_row r || has_full (r + 1)) in
      let rec touches_all r = r >= rows || (touches_row r && touches_all (r + 1)) in
      has_full 0 && touches_all 0
    end
end

module Wall = struct
  let name = "crumbling-wall"

  (* Rows of increasing width 1, 2, 3, ... over the members in ascending
     identifier order; the last row takes the remainder. *)
  let rows config =
    let members = Pid.Set.elements config in
    let rec build width = function
      | [] -> []
      | rest ->
        let rec take k acc = function
          | [] -> (List.rev acc, [])
          | l when k = 0 -> (List.rev acc, l)
          | x :: l -> take (k - 1) (x :: acc) l
        in
        let row, rest' = take width [] rest in
        row :: build (width + 1) rest'
    in
    build 1 members

  let is_quorum ~config s =
    let v = Pid.Set.cardinal config in
    if v = 0 then false
    else if v <= 2 then Majority.is_quorum ~config s
    else begin
      let rows = rows config in
      let full row = List.for_all (fun p -> Pid.Set.mem p s) row in
      let touched row = List.exists (fun p -> Pid.Set.mem p s) row in
      (* a quorum: some full row plus a representative in every row below *)
      let rec scan = function
        | [] -> false
        | row :: below -> (full row && List.for_all touched below) || scan below
      in
      scan rows
    end
end

let has_majority ~config alive = Majority.is_quorum ~config alive
let intersects q1 q2 = not (Pid.Set.is_empty (Pid.Set.inter q1 q2))

module Phase = struct
  type ('req, 'rep) msg =
    | Request of { id : int; req : 'req }
    | Reply of { id : int; rep : 'rep }
    | Refuse of { id : int }

  type ('req, 'rep) t = {
    id : int;
    conf : Pid.Set.t;
    targets : Pid.Set.t;
    req : 'req;
    mutable replies : 'rep Pid.Map.t;
  }

  let start ~id ~conf ?(targets = conf) req =
    { id; conf; targets = Pid.Set.union conf targets; req; replies = Pid.Map.empty }

  let request t = t.req
  let conf t = t.conf
  let replies t = t.replies
  let record t ~from rep = t.replies <- Pid.Map.add from rep t.replies

  let receive t ~from = function
    | Reply { id; rep } when id = t.id ->
      record t ~from rep;
      `Replied
    | Refuse { id } when id = t.id -> `Refused
    | Request _ | Reply _ | Refuse _ -> `Ignored

  let complete t =
    has_majority ~config:t.conf
      (Pid.Map.fold (fun p _ acc -> Pid.Set.add p acc) t.replies Pid.Set.empty)

  let send_requests ~self t send =
    let m = Request { id = t.id; req = t.req } in
    Pid.iter_desc
      (fun p -> if not (Pid.equal p self || Pid.Map.mem p t.replies) then send p m)
      t.targets
end

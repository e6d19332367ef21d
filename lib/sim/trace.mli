(** Structured execution traces.

    Protocols emit tagged events during a run; tests and experiments assert
    over the resulting sequence (e.g. that the delicate-replacement automaton
    of Figure 2 moves 0 -> 1 -> 2 -> 0). *)

type entry = {
  time : float;
  node : Pid.t option;
  tag : string;
  detail : string;
}

type t

(** [create ~limit ()] keeps at most [limit] most-recent entries
    (default 100_000). Recording beyond [limit] evicts the oldest entry:
    the trace is a ring, never holding more than [limit] entries. *)
val create : ?limit:int -> unit -> t

(** O(1) (amortized — storage grows geometrically up to [limit]). *)
val record : t -> time:float -> ?node:Pid.t -> tag:string -> string -> unit

(** Apply to each retained entry in chronological order, without
    materializing a list. *)
val iter : t -> (entry -> unit) -> unit

val fold : t -> init:'a -> ('a -> entry -> 'a) -> 'a

(** Number of retained entries (at most [limit]). *)
val length : t -> int

(** Entries in chronological order. *)
val entries : t -> entry list

(** [with_tag t tag] is the chronological sub-sequence carrying [tag]. *)
val with_tag : t -> string -> entry list

(** [count t tag] is [List.length (with_tag t tag)]. *)
val count : t -> string -> int

val clear : t -> unit
val pp_entry : Format.formatter -> entry -> unit

(** [entry_json e] — [e] as one single-line JSON object
    [{"time":...,"node":...,"tag":"...","detail":"..."}] ([node] is
    [null] for system events): one line of a JSONL trace. *)
val entry_json : entry -> string

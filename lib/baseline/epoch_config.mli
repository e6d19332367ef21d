(** A deliberately {e non}-self-stabilizing reconfiguration baseline.

    This is the comparator the paper argues against (Section 1, Related
    work): reconfiguration schemes in the style of [17, 2] that assume a
    coherent start and use unbounded epoch counters. Each node holds
    ⟨epoch, config⟩; a reconfiguration bumps the epoch; nodes adopt the
    pair with the highest epoch they hear about. Starting from a coherent
    state this works fine and is simpler and faster than recSA — but it has
    no notion of stale information: a single transient fault that plants a
    huge epoch with a garbage configuration (e.g. containing only departed
    processors) wins every comparison and the system never recovers
    (experiment E9). *)

open Sim

type node = {
  mutable epoch : int;  (** unbounded counter (the paper's criticism) *)
  mutable config : Pid.Set.t;
}

type msg = { m_epoch : int; m_config : Pid.Set.t }

type t

val create :
  ?seed:int -> ?capacity:int -> ?loss:float -> members:Pid.t list -> unit -> t

val engine : t -> (node, msg) Engine.t

(** [reconfigure t p set] — node [p] installs ⟨epoch+1, set⟩ and gossips
    it. *)
val reconfigure : t -> Pid.t -> Pid.Set.t -> unit

(** [corrupt t p ~epoch ~config] — transient fault. *)
val corrupt : t -> Pid.t -> epoch:int -> config:Pid.Set.t -> unit

val config_of : t -> Pid.t -> Pid.Set.t

(** [healthy t] — every live node agrees on a configuration whose members
    are all live (the serviceability condition recSA restores and this
    baseline cannot). *)
val healthy : t -> bool

val run_rounds : t -> int -> unit
val crash : t -> Pid.t -> unit

(** Self-stabilizing joining mechanism — Algorithm 3.3.

    A joiner repeatedly sends "Join" requests; configuration members reply
    — when no reconfiguration is taking place and the application's
    [pass_query] allows it — with a pass and their current application
    state. Once passes from a majority of the configuration members are
    collected (and still no reconfiguration is taking place), the joiner
    initializes its application variables from the members' states and
    becomes a participant via recSA's [participate].

    ['app] is the application state carried in replies (the paper's
    [state\[\]]). *)

open Sim

type 'app t

type 'app message =
  | Join_request
  | Join_reply of { pass : bool; app : 'app }

val create : self:Pid.t -> 'app t

(** [tick t ~trusted ~recsa ~reset_vars ~init_vars ~send] — the joiner
    side of the do-forever loop; a no-op for participants. [reset_vars] is
    called once when (re)entering the joining state; [init_vars] is called
    with the collected member states just before [participate], which needs
    passes from a majority of the members ({!Quorum.has_majority}). A
    joiner that is still not a participant then sends a request to every
    other trusted processor through [send], in descending pid order.
    Returns the trace events. *)
val tick :
  'app t ->
  trusted:Pid.Set.t ->
  recsa:Recsa.t ->
  reset_vars:(unit -> unit) ->
  init_vars:('app Pid.Map.t -> unit) ->
  send:(Pid.t -> 'app message -> unit) ->
  (string * string) list

(** [on_request t ~self_app ~from ~trusted ~recsa ~pass_query] — the
    participant side: the reply to a "Join" request, or [None] when this
    processor is not a configuration member or a reconfiguration is taking
    place. *)
val on_request :
  'app t ->
  self_app:'app ->
  from:Pid.t ->
  trusted:Pid.Set.t ->
  recsa:Recsa.t ->
  pass_query:(Pid.t -> bool) ->
  'app message option

(** [on_reply t ~from ~participant ~pass ~app] stores a member's reply
    (joiners only). *)
val on_reply : 'app t -> from:Pid.t -> participant:bool -> pass:bool -> app:'app -> unit

(** [corrupt t ~rng ~pool] — transient fault: scramble the joiner-side
    bookkeeping (random pass flags over [pool], collected member states
    dropped, the resetVars latch randomized). Convergence must wash it
    out: a stale pass quorum is re-validated against [no_reco] before
    [participate]. *)
val corrupt : 'app t -> rng:Rng.t -> pool:Pid.t list -> unit

(** Number of successful [participate] transitions. *)
val join_count : 'app t -> int

val pp : Format.formatter -> 'app t -> unit

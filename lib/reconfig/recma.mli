(** Reconfiguration Management — Algorithm 3.2.

    recMA triggers a delicate reconfiguration (via recSA's [estab]) when
    either (i) the configuration's majority appears collapsed — the
    processor and its whole {e core} (the intersection of the failure
    detectors of all trusted participants) fail to see a majority of
    members, or (ii) an application-supplied prediction function
    [eval_conf] tells a majority of members that a reconfiguration is
    needed.

    Flags are reset at the start of every iteration and flushed after every
    triggering, bounding the spurious triggerings caused by stale
    information to O(N²·cap) (Lemma 3.18). *)

open Sim

type t

(** The wire message of lines 19–20: ⟨noMaj\[i\], needReconf\[i\]⟩. *)
type message = { m_no_maj : bool; m_need_reconf : bool }

val create : self:Pid.t -> t

(** [tick t ~trusted ~recsa ~eval_conf ~send] is one iteration of the
    do-forever loop. [eval_conf config] is the prediction function
    (evaluated only when needed). "No majority of members trusted"
    ({!Quorum.has_majority}) triggers the collapse path, a majority of
    supporters triggers the prediction path. Calls [Recsa.estab] on
    triggering, then sends its flags to every other trusted participant
    through [send], in descending pid order. Returns the trace events. *)
val tick :
  t ->
  trusted:Pid.Set.t ->
  recsa:Recsa.t ->
  eval_conf:(Pid.Set.t -> bool) ->
  send:(Pid.t -> message -> unit) ->
  (string * string) list

val receive : t -> from:Pid.t -> participant:bool -> message -> unit

(** [core t ~trusted ~recsa] = ∩ over trusted participants of their
    failure-detector sets (line 4). *)
val core : t -> trusted:Pid.Set.t -> recsa:Recsa.t -> Pid.Set.t

(** Number of [estab] calls actually accepted by recSA. *)
val trigger_count : t -> int

(** All triggerings attempted (accepted or not) — Lemma 3.18's count. *)
val attempt_count : t -> int

(** Arbitrary-state injection. *)
val corrupt :
  t -> no_maj:(Pid.t * bool) list -> need_reconf:(Pid.t * bool) list -> unit

val pp : Format.formatter -> t -> unit

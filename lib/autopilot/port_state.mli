(** The six port states of section 6.5.1 and the legal transitions of
    Figure 8.

    The status sampler owns the transitions between [Dead], [Checking],
    [Host] and [Switch_who]; the connectivity monitor owns the transitions
    among the three [Switch_*] states.  Transitions in or out of
    [Switch_good] trigger a network-wide reconfiguration. *)

type t =
  | Dead         (** does not work well enough to use *)
  | Checking     (** being monitored to find out what is attached *)
  | Host         (** attached to a host controller *)
  | Switch_who   (** attached to an unidentified (or unresponsive) switch *)
  | Switch_loop  (** attached to this same switch, or reflecting *)
  | Switch_good  (** attached to a responsive neighbour switch *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val legal_transition : t -> t -> bool
(** The edges of Figure 8 (reflexive transitions excluded). *)

val triggers_reconfiguration : from:t -> into:t -> bool
(** True when the change alters the set of usable switch-to-switch links:
    any transition into or out of [Switch_good]. *)

(** Switch-number assignment (paper section 6.6.3).

    During reconfiguration each switch proposes the number it held in the
    previous epoch (a freshly booted switch proposes 1).  The root grants
    every uncontested valid proposal; when several switches propose the
    same number the one with the smallest UID wins and the losers receive
    the lowest numbers nobody requested.  Short addresses are then the
    switch number concatenated with the 4-bit port number, so addresses
    tend to survive reconfigurations — the property the LocalNet UID cache
    relies on. *)

open Autonet_net

val resolve_proposals : (Uid.t * int) list -> (Uid.t * int) list
(** Pure assignment: input [(uid, proposed number)] pairs (proposals
    outside the valid range are treated as unrequested), output
    [(uid, assigned number)] with all numbers distinct and valid.  Raises
    [Invalid_argument] if there are more switches than assignable numbers
    or a duplicate UID. *)

type t

val make : Graph.t -> (Graph.switch * int) list -> t
(** Resolve proposals for the given member switches of one component and
    freeze the result. *)

val number : t -> Graph.switch -> int option
(** The switch's assigned number; [None] for switches outside the
    assignment (other components). *)

val switch_of_number : t -> int -> Graph.switch option

val max_number : t -> int
(** Largest assigned switch number, or [-1] for an empty assignment.
    Bounds the page array of a built table spec (one page per number). *)

val address : t -> Graph.switch -> Graph.port -> Short_address.t
(** Short address of the given port.  Raises [Invalid_argument] for an
    unassigned switch. *)

val resolve : t -> Short_address.t -> (Graph.switch * Graph.port) option
(** Inverse of {!address} for assigned addresses of this component. *)

val alist : t -> (Graph.switch * int) list
(** Assignments, ascending by switch index. *)

val pp : Format.formatter -> t -> unit

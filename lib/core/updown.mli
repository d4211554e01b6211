(** Up*/down* link orientation (paper sections 4.2 and 6.6.4).

    Each usable switch-to-switch link is assigned a direction: its "up" end
    is the end whose switch is closer to the spanning-tree root, with ties
    broken toward the switch with the lower UID.  Loop links (both ends on
    the same switch) are excluded from the configuration.  The directed
    links form no loops, which is what makes up*/down* routes
    deadlock-free. *)

type t

val orient : Graph.t -> Spanning_tree.t -> t
(** Orientation of all non-loop links between member switches of the given
    tree's component.  Sizes its per-link array with
    {!Graph.max_link_id} and iterates links with {!Graph.iter_links},
    so no intermediate link list is allocated. *)

val reorient :
  Graph.t -> Spanning_tree.t ->
  prev:t -> old_of_new_link:int array -> new_of_old_switch:int array ->
  t
(** Delta-path variant of {!orient}: links that survive from the previous
    epoch ([old_of_new_link.(new_id) = old_id], [-1] for fresh links) keep
    their previous orientation with the up-end switch index translated
    through [new_of_old_switch]; fresh links are oriented from scratch.
    Sound only under {!Delta.classify}'s preconditions — every surviving
    switch keeps its UID, membership and tree level — under which the
    result is identical to a fresh {!orient}. *)

val up_end : t -> Graph.link_id -> Graph.switch option
(** The switch at the "up" end, or [None] when the link is excluded (loop
    link, removed link, or outside the component). *)

val up_end_i : t -> Graph.link_id -> int
(** Allocation-free variant of {!up_end}: the up-end switch index, or
    [-1] when the link is excluded.  The inner loops of {!Routes} use
    this. *)

val usable : t -> Graph.link_id -> bool

val goes_up : t -> Graph.link -> from:Graph.switch -> bool
(** [goes_up t l ~from] is true when traversing [l] out of switch [from]
    moves toward the up end.  Raises [Invalid_argument] when the link is
    excluded or does not touch [from]. *)

val usable_links : t -> Graph.link_id list
(** Ascending link ids. *)

val verify_acyclic : Graph.t -> t -> bool
(** True when the directed links form no cycle — the invariant the
    orientation must establish.  Exposed for property tests. *)

val pp : Graph.t -> Format.formatter -> t -> unit

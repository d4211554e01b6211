(** The Autonet spanning tree (paper sections 4.1 and 6.6.1).

    The distributed reconfiguration algorithm converges on a unique
    spanning tree per connected component: the root is the switch with the
    smallest UID, levels are hop distances from the root, and ties between
    candidate parents are broken first by parent UID and then by the
    child-side port number.  This module computes that tree directly from a
    {!Graph.t}; the distributed protocol in the [autopilot] library must
    converge to exactly this tree, which the tests check. *)

open Autonet_net

module Position : sig
  (** A switch's claimed position in the forming tree, as carried by
      tree-position packets.  The ordering below is the paper's "better
      parent link" rule. *)

  type t = {
    root : Uid.t;        (** UID of the claimed root *)
    level : int;         (** 0 at the root *)
    parent : Uid.t;      (** parent UID; the root claims itself *)
    parent_port : int;   (** child-side port to the parent; 0 at the root *)
  }

  val root_position : Uid.t -> t
  (** The initial position of a switch that believes itself the root. *)

  val compare : t -> t -> int
  (** Lexicographic on (root, level, parent, parent_port): smaller is
      better. *)

  val better : t -> t -> bool
  (** [better a b] iff [a] is strictly preferable to [b]. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

type parent = {
  link : Graph.link_id;
  my_port : Graph.port;          (** child-side port *)
  parent_switch : Graph.switch;
  parent_port : Graph.port;      (** parent-side port *)
}

type t

val compute : Graph.t -> member:Graph.switch -> t
(** The spanning tree of the connected component containing [member].
    Runs on the packed adjacency fast path ({!Graph.iter_neighbors})
    with flat int scratch arrays, and stores every member's children. *)

val root : t -> Graph.switch
val members : t -> Graph.switch list
(** Ascending. *)

val mem : t -> Graph.switch -> bool

val level : t -> Graph.switch -> int
(** Raises [Invalid_argument] for a non-member. *)

val level_i : t -> Graph.switch -> int
(** Allocation- and exception-free variant of {!level}: the switch's
    level, or [-1] for a non-member (or out-of-range index).  The inner
    loops of {!Updown.orient} use this. *)

val parent : t -> Graph.switch -> parent option
(** [None] exactly for the root. *)

val children : t -> Graph.switch -> (Graph.port * Graph.link_id * Graph.switch) list
(** Tree children with the connecting link and the local (parent-side)
    port, in increasing child switch order.  O(1): the list {!compute}
    stored, shared by every call, so asking for every member's children
    allocates nothing.  Raises [Invalid_argument] for a non-member. *)

val is_tree_link : t -> Graph.link_id -> bool

val position : t -> Graph.t -> Graph.switch -> Position.t
(** The stable position of a member switch, as the distributed protocol
    would report it. *)

val depth : t -> int
(** Maximum level over members. *)

val pp : Graph.t -> Format.formatter -> t -> unit

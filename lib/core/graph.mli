(** Physical network topology.

    A topology is a set of switches interconnected by point-to-point links
    in an arbitrary pattern, with hosts attached to switch ports (paper
    section 3.2).  Each switch has port 0 reserved for its control
    processor and [max_ports] external ports.  Any external port can be
    cabled to any other switch port (including another port of the same
    switch — a loop link) or to a host controller port.

    Switch identifiers are dense integers assigned in insertion order; they
    index the arrays used by the routing algorithms.  The graph is the
    {e physical} truth; the algorithms in {!Spanning_tree}, {!Updown} and
    {!Routes} view it through the set of links the port-state machinery has
    declared usable. *)

open Autonet_net

type switch = int
(** Dense switch index. *)

type port = int
(** Port number on a switch: 0 is the control processor, 1..[max_ports]
    are external. *)

type endpoint = switch * port

type link_id = int
(** Dense link index (switch-to-switch links only). *)

type link = {
  id : link_id;
  a : endpoint;
  b : endpoint;
}
(** An undirected switch-to-switch cable.  [a] and [b] are the two ends;
    a loop link has [fst a = fst b]. *)

type host_attachment = {
  host_uid : Uid.t;
  host_port : int;  (** which of the controller's (two) ports this is *)
  switch : switch;
  switch_port : port;
}

type t

val create : ?max_ports:int -> unit -> t
(** [max_ports] defaults to 12, the paper's switch. *)

val max_ports : t -> int

val add_switch : t -> uid:Uid.t -> switch
(** Raises [Invalid_argument] if the UID is already present. *)

val switch_count : t -> int
val switches : t -> switch list
val uid : t -> switch -> Uid.t
val switch_of_uid : t -> Uid.t -> switch option

val connect : t -> endpoint -> endpoint -> link_id
(** Cable two switch ports together.  Raises [Invalid_argument] if either
    port is out of range, is port 0, or is already in use. *)

val attach_host : t -> host_uid:Uid.t -> host_port:int -> endpoint -> unit
(** Cable a host controller port to a switch port. *)

val disconnect : t -> link_id -> unit
(** Remove a link (models unplugging a cable); its ports become free. *)

val links : t -> link list
(** All live switch-to-switch links, in id order. *)

val link : t -> link_id -> link option

val link_count : t -> int

val link_at : t -> endpoint -> link_id option
(** The link plugged into the given port, if any. *)

val host_at : t -> endpoint -> host_attachment option

val hosts : t -> host_attachment list

val host_attachments : t -> Uid.t -> host_attachment list
(** All attachment points of the given host controller. *)

val neighbors : t -> switch -> (port * link_id * switch * port) list
(** [(my_port, link, peer switch, peer port)] for each live non-loop link
    on the switch, in increasing port order. *)

val iter_neighbors : t -> switch -> (port -> link_id -> switch -> port -> unit) -> unit
(** [iter_neighbors t s f] calls [f my_port link peer peer_port] for each
    live non-loop link on [s], in increasing port order — the same
    sequence as {!neighbors} but served from a packed adjacency cache
    with no per-query allocation.  The cache is built on first use and
    invalidated by any topology mutation, so mutating the graph from
    inside [f] is not allowed. *)

val degree : t -> switch -> int
(** Number of live non-loop links on the switch (length of
    {!neighbors}). *)

val max_link_id : t -> int
(** Largest link id ever allocated, or [-1] when no link was ever
    created.  Removed ids below it answer [None]/[-1] everywhere; use
    this to size per-link arrays without walking {!links}. *)

val iter_links : t -> (link -> unit) -> unit
(** Iterate the live switch-to-switch links in id order without building
    the {!links} list. *)

val other_end : link -> switch -> endpoint
(** The far endpoint as seen from the given switch.  For loop links returns
    the [b] end when called with the shared switch. *)

val is_loop : link -> bool

val used_ports : t -> switch -> port list
(** External ports currently cabled to something, ascending. *)

val free_port : t -> switch -> port option
(** Lowest-numbered unused external port. *)

val components : t -> switch list list
(** Connected components over live, non-loop links; each component's
    members ascend, components ordered by smallest member. *)

val copy : t -> t
(** Deep copy; mutations on the copy do not affect the original. *)

val pp : Format.formatter -> t -> unit

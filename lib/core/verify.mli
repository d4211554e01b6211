(** Route verification by forwarding-table walking.

    A pure interpreter of forwarding tables: packets are walked through the
    table specs exactly as the switch hardware would forward them, which
    lets tests, experiments and the chaos oracle check the paper's routing
    goals — every host reachable over every alternative port, no loops, no
    down-then-up hop, broadcast delivered everywhere exactly once — without
    running the slot-level simulator. *)

open Autonet_net

type delivery = {
  at_switch : Graph.switch;
  out_port : Graph.port;  (** 0 = control processor, otherwise a host port *)
}

type outcome =
  | Delivered of delivery
  | Discarded of Graph.switch  (** reached this switch and hit a discard *)
  | Looped                     (** revisited a (switch, in-port): a loop *)

val pp_outcome : Format.formatter -> outcome -> unit

type net

val make : Graph.t -> Tables.spec list -> net
(** Reads the graph's cabling once.  A switch uses its first spec, and a
    switch without one discards. *)

val walk_unicast :
  net -> from:Graph.endpoint -> dst:Short_address.t -> outcome * int
(** Inject a packet into the network at the given switch port (a host port,
    or port 0 for a control-processor source) and follow table entries,
    taking the lowest-numbered alternative port at each hop.  Returns the
    outcome and the number of switch-to-switch hops taken. *)

val undelivered :
  net ->
  sources:Graph.endpoint list ->
  dsts:(Graph.endpoint * Short_address.t) list ->
  (Graph.endpoint * Graph.endpoint * outcome) list
(** The pairs of a source and another destination endpoint (given with its
    address) that some choice among an entry's alternative ports fails to
    deliver, by source then destination in list order, each with a
    witness: the walk along the first failing alternative.  One memoised
    pass per destination judges the (switch, in-port) states the sources
    reach; a state met again while pending is on a loop. *)

val flood_broadcast :
  net -> from:Graph.endpoint -> dst:Short_address.t -> delivery list
(** Follow a broadcast flood from the given source and return every
    delivery point (sorted, duplicates preserved — a correct flood has no
    duplicates). *)

val all_hosts_reach_all :
  net -> Address_assign.t -> (Graph.endpoint * Graph.endpoint) list
(** {!undelivered} between every ordered pair of host ports whose switch
    has a number: the pairs that some choice of alternatives fails to
    deliver (empty = the paper's reachability goal holds). *)

val no_down_then_up : net -> Updown.t -> bool
(** Check the local enforcement rule: no table entry forwards from a
    "down" in-link to an "up" out-link. *)

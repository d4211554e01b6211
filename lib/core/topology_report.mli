(** Topology descriptions carried by reconfiguration messages (paper
    section 6.6.1, step 2).

    As stability moves up the forming spanning tree, each switch's "I am
    stable" message grows into a report describing the topology of its
    stable subtree; the root ends up with the whole picture and floods it
    back down.  A report records, per switch, its UID, the switch number it
    proposes to keep, and what each port is cabled to — enough for every
    switch to independently rebuild the graph and compute identical
    forwarding tables. *)

open Autonet_net

type port_desc =
  | Unused      (** nothing usable attached *)
  | Host_port   (** a host controller port *)
  | Switch_link of { peer : Uid.t; peer_port : int }

type switch_desc = {
  uid : Uid.t;
  proposed_number : int;
  ports : port_desc array;  (** index 1..max_ports; index 0 ignored *)
}

type t

val max_ports : t -> int

val singleton : max_ports:int -> switch_desc -> t

val switch_desc :
  uid:Uid.t -> proposed_number:int -> max_ports:int ->
  (Graph.port * port_desc) list -> switch_desc
(** Build a description from the ports that are in use. *)

val merge : t -> t -> t
(** Union by UID.  Raises [Invalid_argument] when the two reports disagree
    about a switch they both describe. *)

val switches : t -> switch_desc list
(** Ascending by UID. *)

val size : t -> int
(** Number of switches described. *)

val mem : t -> Uid.t -> bool

val find : t -> Uid.t -> switch_desc option

val proposals : t -> Graph.t -> (Graph.switch * int) list
(** Each described switch that the graph holds, by UID, with the number
    it proposes: the input {!Address_assign.make} resolves. *)

val closed : t -> bool
(** Reference closure: every [Switch_link] in the report points at a switch
    that is itself described and whose description reciprocates the link.
    The true report of a connected component is always closed; a partially
    accumulated one that is missing a switch is not, because the missing
    switch's neighbours still describe their cables to it.  The
    reconfiguration root refuses to conclude an epoch on a non-closed
    report. *)

val to_graph : t -> Graph.t
(** Rebuild the physical graph: switches in UID order, links deduplicated
    from their two endpoint descriptions, host ports attached with
    synthetic host identities (the attached switch's UID; only the fact
    that the port is a host port matters for routing). *)

val equal : t -> t -> bool
(** Physical equality first, then structural. *)

(** {1 Wire codec}

    The encoding is canonical: [decode] accepts only what [encode] emits
    (switches in strictly ascending UID order, [max_ports] in 1..15,
    every [peer_port] in 1..[max_ports]), so equal reports have equal
    bytes and every report that decodes can be rebuilt by {!to_graph}. *)

val encode : Wire.Writer.t -> t -> unit
(** Encode afresh; never reads or writes the memo below. *)

val wire : t -> string
(** [encode]'s bytes for the report, computed on first use and memoized
    on the value, so a report flooded to many neighbours or retransmitted
    is encoded once.  The memo is written once, by the domain that runs
    the network owning the report (a network's reports never leave it).
    Correctness never depends on it: a report without bytes (as
    [singleton], [merge] and [decode] return them) is merely encoded
    when first needed, and a missed match merely decodes afresh. *)

val decode : ?among:t list -> Wire.Reader.t -> t
(** Raises {!Wire.Malformed} or {!Wire.Truncated} on bad input.  When the
    input starts with the memoized {!wire} bytes of one of the [among]
    candidates, that candidate itself is returned (compared in place,
    copying nothing); otherwise a fresh value is decoded. *)

val pp : Format.formatter -> t -> unit

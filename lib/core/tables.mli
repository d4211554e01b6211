(** Forwarding-table synthesis (paper sections 6.3 and 6.6.4).

    A switch's forwarding table is indexed by the incoming port number
    concatenated with the packet's destination short address; each entry
    holds a port vector and a broadcast flag.  With [broadcast = false] the
    vector lists {e alternative} ports (the switch sends on any free one,
    preferring the lowest number); with [broadcast = true] it lists the
    ports that must all forward the packet {e simultaneously}, and an empty
    vector means discard.

    This module renders the routing computed by {!Routes} into concrete
    per-switch tables: minimal legal up*/down* routes for assigned unicast
    addresses, the spanning-tree flood pattern for the broadcast addresses,
    and the constant entries (local switch 0x0000, one-hop addresses,
    loopback 0xFFFC) of the paper's address table.  Entries that would
    forward from a "down" in-link to an "up" out-link are never generated,
    so a corrupted address cannot produce an illegal route.

    A {!spec} is keyed by the hardware index [(address lsl 4) lor in_port],
    and it is also the switch's storage format: the switch's forwarding
    table loads a spec by {!copy} and edits it in place with {!set} and
    {!remove}. *)

open Autonet_net

type entry = { broadcast : bool; ports : int list }
(** [ports] always ascends.  A missing table entry means discard, as does
    a broadcast entry with an empty vector. *)

val discard : entry
(** The all-zeroes broadcast entry. *)

val equal_entry : entry -> entry -> bool
val pp_entry : Format.formatter -> entry -> unit

type spec

val switch : spec -> Graph.switch

val empty : switch:Graph.switch -> spec

val copy : switch:Graph.switch -> spec -> spec
(** An independent copy tagged with [switch]. *)

val lookup : spec -> in_port:Graph.port -> dst:Short_address.t -> entry
(** Missing entries come back as {!discard}. *)

val set : spec -> in_port:Graph.port -> dst:Short_address.t -> entry -> unit
(** Replace one entry in place; an entry with empty [ports] removes it.
    [in_port] must be in 0..15. *)

val remove : spec -> in_port:Graph.port -> dst:Short_address.t -> unit

val row : spec -> in_port:Graph.port -> (Short_address.t * entry) list
(** The entries of one receiving port, ascending by address. *)

val entry_count : spec -> int

val fold : spec -> init:'a -> f:('a -> in_port:Graph.port -> dst:Short_address.t -> entry -> 'a) -> 'a

val iter : spec -> f:(in_port:Graph.port -> dst:Short_address.t -> entry -> unit) -> unit
(** Like {!fold} but in unspecified order and without building or sorting
    an intermediate list — the iteration the deadlock checker's edge
    generation runs on every entry of every spec. *)

type route_mode =
  | Minimal_routes  (** only minimal-length legal routes (paper's choice) *)
  | All_legal_routes (** every legal continuation; ablation A1 *)

val build :
  ?mode:route_mode ->
  Graph.t -> Spanning_tree.t -> Updown.t -> Routes.t -> Address_assign.t ->
  Graph.switch -> spec
(** The table for one member switch of the configured component.  Fast
    path: the arrival phase of each in-port and the (at most two)
    next-hop port vectors per destination switch are computed once and
    shared across the whole address block, instead of once per
    (in-port, address) pair as {!Reference.build} does. *)

val patch :
  ?mode:route_mode ->
  Graph.t -> Updown.t -> Routes.t -> Address_assign.t ->
  prev:spec -> switch:Graph.switch ->
  removed_numbers:int list -> added_dests:Graph.switch list ->
  spec
(** Delta-path membership repair for a switch whose own routes did not
    change: clone [prev], strip every entry addressed to a switch number
    in [removed_numbers], and append the address blocks of the
    [added_dests] switches exactly as {!build} would render them.
    [switch] is the switch's index in the {e new} graph [g] — membership
    changes shift indices, so [prev.spec_switch] cannot be trusted.  The
    result is lookup-identical to a fresh {!build} on the new epoch
    provided the switch's receiving ports, arrival phases and minimal
    next-hop sets toward every surviving destination are unchanged — the
    precondition {!Delta} establishes before choosing to patch. *)

val equal_spec : spec -> spec -> bool
(** Lookup equivalence: same switch and same non-discard entries,
    regardless of internal dense/sparse placement.  The delta-equivalence
    oracle and tests compare specs with this. *)

val of_entries :
  switch:Graph.switch ->
  ((Graph.port * Short_address.t) * entry) list ->
  spec
(** Assemble a spec from explicit entries: the escape hatch used by the
    baseline routing schemes (spanning-tree-only and unrestricted
    shortest-path) so that the same verification and simulation machinery
    runs against them. *)

val build_all :
  ?mode:route_mode ->
  ?pool:Autonet_parallel.Pool.t ->
  Graph.t -> Spanning_tree.t -> Updown.t -> Routes.t -> Address_assign.t ->
  spec list
(** Tables for every member switch, ascending by switch index.  With
    [pool], one build task per member switch fans out across the pool's
    domains; the specs come back in switch order and are bit-identical to
    the serial result (a one-domain pool {e is} the serial path). *)

module Reference : sig
  (** The original per-entry builder driven by the list-based
      {!Routes.Reference} machinery, kept as the correctness oracle and
      micro-benchmark baseline.  Must produce specs identical to
      {!build}/{!build_all}. *)

  val build :
    ?mode:route_mode ->
    Graph.t -> Spanning_tree.t -> Updown.t -> Routes.Reference.r ->
    Address_assign.t -> Graph.switch -> spec

  val build_all :
    ?mode:route_mode ->
    Graph.t -> Spanning_tree.t -> Updown.t -> Routes.Reference.r ->
    Address_assign.t -> spec list
end

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
    {!remove}.

    {b Storage.}  A spec holds its keys in copy-on-write pages of 256:
    page [p] is switch number [p]'s 16-address block at all 16 in-ports,
    page 0 holds the constant and one-hop rows (addresses 0..15), and one
    more page holds the reserved and special addresses 0xFFF0..0xFFFF.  A
    destination's block holds at most two distinct entries (one per
    arrival phase), so {!build} interns a switch's remote blocks by their
    (up, down) entry pair: destinations with equal next-hop sets share one
    page.  One shared empty page stands for every block without entries
    and is never written.  A spec writes a page in place only while the
    page is its own; any other page — shared by {!copy}, interned, or the
    empty page — is copied before its first write.  Memory per table is
    therefore the page pointers (one word per switch number) plus the
    pages the switch's next-hop sets and edits make distinct, not
    (max switch number + 1) · 256 slots. *)

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
(** No entries; allocates no page. *)

val copy : switch:Graph.switch -> spec -> spec
(** An independent copy tagged with [switch], in O(max switch number):
    it copies the page pointers, not the pages, and marks every page
    shared on both sides, so neither side writes a shared page in place —
    each copies a page before its first write to it, and edits on either
    side never show on the other.  [copy] writes its source's ownership
    marks: it must not run on a spec that another domain is writing. *)

val lookup : spec -> in_port:Graph.port -> dst:Short_address.t -> entry
(** Missing entries come back as {!discard}. *)

val set : spec -> in_port:Graph.port -> dst:Short_address.t -> entry -> unit
(** Replace one entry in place; an entry with empty [ports] removes it.
    [in_port] must be in 0..15. *)

val remove : spec -> in_port:Graph.port -> dst:Short_address.t -> unit

val row : spec -> in_port:Graph.port -> (Short_address.t * entry) list
(** The entries of one receiving port, ascending by address. *)

val has_row : spec -> in_port:Graph.port -> bool
(** [row spec ~in_port <> []], stopping at the first entry found. *)

val entry_count : spec -> int
(** Exact, however the entries are shared between pages. *)

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
    change: {!copy} [prev], drop the page of every switch number in
    [removed_numbers] (O(1) each), and add the address blocks of the
    [added_dests] switches exactly as {!build} would render them.
    [switch] is the switch's index in the {e new} graph [g] — membership
    changes shift indices, so [prev.spec_switch] cannot be trusted.  The
    result is lookup-identical to a fresh {!build} on the new epoch
    provided the switch's receiving ports, arrival phases and minimal
    next-hop sets toward every surviving destination are unchanged — the
    precondition {!Delta} establishes before choosing to patch. *)

val equal_spec : spec -> spec -> bool
(** Lookup equivalence: same switch and same non-discard entries,
    regardless of how pages are shared.  The delta-equivalence
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

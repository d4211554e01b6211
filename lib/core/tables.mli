(** Forwarding-table synthesis (paper sections 6.3 and 6.6.4).

    A switch's forwarding table is indexed by the incoming port number
    concatenated with the packet's destination short address; each entry
    is one hardware word holding a port vector and a broadcast flag.  With
    the flag clear the vector names {e alternative} ports (the switch
    sends on any free one, preferring the lowest number); with the flag
    set it names the ports that must all forward the packet
    {e simultaneously}, and an empty vector means discard.

    This module renders the routing computed by {!Routes} into concrete
    per-switch tables: minimal legal up*/down* routes for assigned unicast
    addresses, the spanning-tree flood pattern for the broadcast addresses,
    and the constant entries (local switch 0x0000, one-hop addresses,
    loopback 0xFFFC) of the paper's address table.  Entries that would
    forward from a "down" in-link to an "up" out-link are never generated,
    so a corrupted address cannot produce an illegal route.

    It renders the switch's whole hardware table.  A {!spec} is keyed by
    the hardware index [(address lsl 4) lor in_port], and it is also the
    switch's storage format: the switch's forwarding table loads a
    computed spec by {!copy} and the step-1 table by {!constant}, writes
    no entry of its own, and edits the loaded table in place with {!set},
    {!add_host_port} and {!remove_host_port}.

    {b Storage.}  A spec holds its keys in copy-on-write pages of 256:
    page [p] is switch number [p]'s 16-address block at all 16 in-ports,
    page 0 holds the constant and one-hop rows (addresses 0..15), and one
    more page holds the reserved and special addresses 0xFFF0..0xFFFF.  A
    page is an array of entry words, and an absent slot holds {!discard}.
    A destination's block holds at most two distinct entries (one per
    arrival phase), so {!build} interns a switch's remote blocks by their
    (up, down) word pair: destinations with equal next-hop sets share one
    page.  One shared empty page stands for every block without entries
    and is never written.  A spec writes a page in place only while the
    page is its own; any other page — shared by {!copy}, interned, or the
    empty page — is copied before its first write.  Memory per table is
    therefore the page pointers (one word per switch number) plus the
    pages the switch's next-hop sets and edits make distinct, not
    (max switch number + 1) · 256 slots. *)

open Autonet_net

type entry = private int
(** One table entry, the hardware word: a {!Port_vector.t} and the
    broadcast flag.  Two entries are equal exactly when their flags and
    port sets are, so entries compare with [=]. *)

val entry : broadcast:bool -> Port_vector.t -> entry
val vector : entry -> Port_vector.t
val broadcast : entry -> bool

val discard : entry
(** The broadcast flag with an empty vector: the value of every absent
    slot.  Any entry with an empty vector discards. *)

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
(** Replace one entry in place; an entry with an empty vector removes it
    (the slot reads {!discard} again).  [in_port] must be in 0..15. *)

val row : spec -> in_port:Graph.port -> (Short_address.t * entry) list
(** The entries of one receiving port, ascending by address. *)

val has_row : spec -> in_port:Graph.port -> bool
(** [row spec ~in_port <> []], stopping at the first entry found. *)

val entry_count : spec -> int
(** Exact, however the entries are shared between pages. *)

val fold : spec -> init:'a -> f:('a -> in_port:Graph.port -> dst:Short_address.t -> entry -> 'a) -> 'a

val exists_entry : spec -> f:(in_port:Graph.port -> entry -> bool) -> bool
(** Whether [f] holds for some entry.  [f] sees the in-port and the
    entry but not the address, so each physically distinct page is
    scanned once however many address blocks share it: on a built table
    that is the few interned (up, down) pages, not one page per switch
    number.  The readers that ignore the address run on this: the
    deadlock checker's edge generation (an [f] that always answers
    [false] visits every distinct page), its certificate and
    {!Verify.no_down_then_up}. *)

val constant : switch:Graph.switch -> max_ports:int -> spec
(** The constant block of the paper's address table, alone: one-hop
    address [k] (1..[max_ports]) from in-port 0 goes out port [k], and
    from every other in-port 1..[max_ports] to the control processor.
    {!build} draws the same block at every in-port, cabled or not.  Each
    call renders a fresh spec, so tables on different domains never share
    it. *)

type route_mode =
  | Minimal_routes  (** only minimal-length legal routes (paper's choice) *)
  | All_legal_routes (** every legal continuation; ablation A1 *)

val build :
  ?mode:route_mode ->
  Graph.t -> Spanning_tree.t -> Updown.t -> Routes.t -> Address_assign.t ->
  Graph.switch -> spec
(** The table for one member switch of the configured component.  The
    arrival phase of each in-port and the (at most two) next-hop port
    vectors per destination switch are computed once and shared across
    the whole address block, not once per (in-port, address) pair.  Page
    0 holds the {!constant} block at every in-port 0..max_ports and the
    local-switch rows of the host ports. *)

val add_host_port : spec -> number:int -> port:Graph.port -> unit
(** Give [port] of switch number [number] exactly the rows {!build}
    gives a host port, in place (paper 6.5.3):
    - at [port], the Up-phase rows of every remote destination, copied
      from in-port 0 once per physically distinct page, so pages that
      address blocks share stay shared;
    - at [port], the local-switch, loopback and broadcast origination
      rows and the switch's own delivered addresses (its one-hop rows
      are the {!constant} block's, already there);
    - delivery of [port]'s address from every in-port that delivers the
      control processor's;
    - [port] in every local-delivery broadcast set (the rows whose
      broadcast-all entry holds port 0).
    A port whose loopback row is present is left as it is. *)

val remove_host_port : spec -> number:int -> port:Graph.port -> unit
(** The exact inverse of {!add_host_port}: [port]'s column on every page
    but page 0, its local-switch row, the delivery of its address and
    its place in the broadcast sets go, and page 0's constant rows stay.
    Adding and removing a port therefore undo each other on a built table
    and on a loaded one alike.  A port without a loopback row is left as
    it is. *)

val patch :
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
(** Tables for every member switch, ascending by switch index.  One
    build task per member switch fans out across [pool]'s domains
    (default {!Autonet_parallel.Pool.serial}); the specs come back in
    switch order and are bit-identical for any domain count. *)

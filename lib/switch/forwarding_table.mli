(** The hardware forwarding table of one switch (paper section 6.3).

    Indexed by the receiving port number concatenated with the destination
    short address; each entry is one {!Autonet_core.Tables.entry} word, a
    port vector plus a broadcast flag, and a missing entry reads as
    {!Autonet_core.Tables.discard}.

    The table supports the two loading regimes of a reconfiguration: at
    step 1 every switch reloads only the constant one-hop entries (so
    reconfiguration packets can still travel between neighbours and to the
    control processor), and at step 5 it loads the complete table computed
    from the topology.  As in the real switch, a (re)load resets the
    data path: the Autopilot drops the control packets that reach the
    switch during the reset ([Autopilot.on_receive], until its
    [loading_until]), reproducing the cost discussed in section 7.

    The switch stores its table in the synthesis format,
    {!Autonet_core.Tables.spec}, whose key is exactly the hardware index
    [(address lsl 4) lor in_port], and {!Autonet_core.Tables} renders
    every entry of it: this module only holds the table.  Loading a
    computed table is a {!Autonet_core.Tables.copy} that writes no entry:
    the switch shares the spec's copy-on-write pages (one per switch
    number) instead of copying entries, and row reads and edits work on
    its own copy in place — an edit copies only the page it touches.
    Host ports are enabled and disabled on {!spec}, by
    {!Autonet_core.Tables.add_host_port} and
    {!Autonet_core.Tables.remove_host_port}. *)

open Autonet_net

type t

val create : max_ports:int -> t
(** [max_ports] must be in 1..15, the range {!Autonet_core.Graph.create}
    accepts.  Every function taking [~in_port] rejects ports outside
    0..[max_ports] with [Invalid_argument]. *)

val max_ports : t -> int

val spec : t -> Autonet_core.Tables.spec
(** The live table storage, tagged with the switch index of the last
    loaded spec.  Later edits mutate it: take a
    {!Autonet_core.Tables.copy} to keep it. *)

val lookup : t -> in_port:int -> dst:Short_address.t -> Autonet_core.Tables.entry
(** The stored word itself: a lookup allocates nothing. *)

val has_row : t -> in_port:int -> bool
(** Whether any entry exists for this receiving port. *)

val rows_of :
  t -> in_port:int -> (Short_address.t * Autonet_core.Tables.entry) list
(** All entries for one receiving port, ascending by address. *)

val clear : t -> unit
(** Empty the table completely (everything discards). *)

val load_constant : t -> unit
(** Replace the table with a fresh {!Autonet_core.Tables.constant}: only
    the constant one-hop entries, address [k] (1..max_ports) from port 0
    out port [k] and from any other port to the control processor. *)

val load_spec : t -> Autonet_core.Tables.spec -> unit
(** Replace the table with a {!Autonet_core.Tables.copy} of the computed
    spec — O(max switch number) page pointers, and no entry written; the
    spec itself is never written.  A built spec already holds the
    constant one-hop entries. *)

val entry_count : t -> int

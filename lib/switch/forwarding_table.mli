(** The hardware forwarding table of one switch (paper section 6.3).

    Indexed by the receiving port number concatenated with the destination
    short address; each entry is a port vector plus a broadcast flag.  A
    missing entry behaves as the all-zeroes broadcast entry: discard.

    The table supports the two loading regimes of a reconfiguration: at
    step 1 every switch reloads only the constant one-hop entries (so
    reconfiguration packets can still travel between neighbours and to the
    control processor), and at step 5 it loads the complete table computed
    from the topology.  As in the real switch, a (re)load resets the
    data path — the dataplane simulator destroys in-flight packets when it
    happens, reproducing the cost discussed in section 7.

    The switch stores its table in the synthesis format,
    {!Autonet_core.Tables.spec}, whose key is exactly the hardware index
    [(address lsl 4) lor in_port]; loading a computed table is a copy of
    the spec, and row reads and edits work on it in place. *)

open Autonet_net

type entry = { vector : Port_vector.t; broadcast : bool }

val discard_entry : entry

type t

val create : max_ports:int -> t
(** [max_ports] must be in 1..15, the range {!Autonet_core.Graph.create}
    accepts.  Every function taking [~in_port] rejects ports outside
    0..[max_ports] with [Invalid_argument]. *)

val max_ports : t -> int

val generation : t -> int
(** Bumped by every {!clear}, {!load_constant} and {!load_spec}; the
    dataplane watches it to detect resets. *)

val spec : t -> Autonet_core.Tables.spec
(** The live table storage, tagged with the switch index of the last
    loaded spec.  Later edits mutate it: take a
    {!Autonet_core.Tables.copy} to keep it. *)

val set : t -> in_port:int -> dst:Short_address.t -> entry -> unit
(** An empty vector removes the entry: it reads as discard and does not
    count in {!entry_count}. *)

val lookup : t -> in_port:int -> dst:Short_address.t -> entry

val unset : t -> in_port:int -> dst:Short_address.t -> unit
(** Remove one entry (it reverts to discard). *)

val has_row : t -> in_port:int -> bool
(** Whether any entry exists for this receiving port. *)

val rows_of : t -> in_port:int -> (Short_address.t * entry) list
(** All entries for one receiving port, ascending by address. *)

val clear : t -> unit
(** Empty the table completely (everything discards). *)

val load_constant : t -> unit
(** Clear, then install only the constant one-hop entries: address [k]
    (1..max_ports) from port 0 goes out port [k]; from any other port it
    goes to the control processor. *)

val load_spec : t -> Autonet_core.Tables.spec -> unit
(** Replace the table with a copy of the computed spec, then add the
    constant one-hop entries wherever the spec has none (computed entries
    take precedence). *)

val entry_count : t -> int

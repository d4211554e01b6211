(** Port vectors: the 13-bit masks in forwarding-table entries and in the
    scheduling engine (paper section 6.3).

    Bit [i] names port [i]; port 0 is the control processor.  The
    implementation supports up to 16 ports, covering the "32 or 64 port"
    scaling discussion only at the type level the paper's prototype
    needs.  Every layer shares this one type: a forwarding-table entry
    ({!Autonet_core.Tables.entry}) is a vector plus the broadcast bit. *)

type t = private int

val empty : t
val is_empty : t -> bool
val full : n_ports:int -> t
(** Ports [0 .. n_ports] inclusive. *)

val singleton : int -> t
val of_list : int list -> t
val of_int : int -> t
(** Bit [i] of the argument is port [i]; [Invalid_argument] outside
    [0, 0xFFFF]. *)

val to_list : t -> int list
(** Ascending. *)

val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val count : t -> int

val lowest : t -> int option
(** The lowest-numbered member: the port the hardware picks among free
    alternatives. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val max_port : int
(** Highest representable port number (15). *)

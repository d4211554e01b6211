(** Autonet short addresses (paper section 6.3).

    A short address is the 16-bit destination field at the front of every
    packet (the prototype interpreted only 11 bits; we implement the full
    16-bit space, the "straightforward design change" the paper mentions).
    Addresses in the range [0x0010 .. 0xFFEF] name a particular switch port
    and are formed by concatenating a switch number with a 4-bit port
    number; the rest of the space is reserved for the special destinations
    in the paper's table:

    {v
    0000        from a host: control processor of the attached switch
    0001 - 000F from a switch: one-hop to the numbered local port
    0010 - FFEF a particular host or switch port
    FFF0 - FFFB reserved, packets discarded
    FFFC        loopback from the attached switch
    FFFD        every switch and every host
    FFFE        every switch
    FFFF        every host
    v} *)

type t = private int
(** A 16-bit short address. *)

val of_int : int -> t
(** Raises [Invalid_argument] outside [0, 0xFFFF]. *)

val to_int : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Four hex digits, e.g. ["0x0123"]. *)

(** {1 Special addresses} *)

val local_switch : t
(** [0x0000]: from a host, the control processor of the attached switch. *)

val one_hop : port:int -> t
(** [0x0001 .. 0x000F]: one-hop switch-to-switch packet through the given
    local port number (1-15). *)

val loopback : t
(** [0xFFFC]: reflected back down the receiving link. *)

val broadcast_all : t
(** [0xFFFD]: every switch and every host. *)

val broadcast_switches : t
(** [0xFFFE]: every switch. *)

val broadcast_hosts : t
(** [0xFFFF]: every host. *)

(** {1 Assigned addresses} *)

val first_switch_number : int
(** Lowest assignable switch number (1). *)

val max_switch_number : int
(** Highest switch number such that all its port addresses stay within
    [0xFFEF]. *)

val assigned : switch_number:int -> port:int -> t
(** The short address of the given port of the given switch.  Raises
    [Invalid_argument] when the pair falls outside the assignable range. *)

val split : t -> (int * int) option
(** [split a] is [Some (switch_number, port)] when [a] is an assigned
    address, [None] otherwise. *)

(** {1 Classification} *)

type cls =
  | To_local_switch      (** 0x0000 *)
  | One_hop of int       (** 0x0001-0x000F, carries the port number *)
  | Assigned of int * int (** switch number, port number *)
  | Reserved             (** 0xFFF0-0xFFFB: discard *)
  | Loopback             (** 0xFFFC *)
  | Broadcast_all        (** 0xFFFD *)
  | Broadcast_switches   (** 0xFFFE *)
  | Broadcast_hosts      (** 0xFFFF *)

val classify : t -> cls

val is_broadcast : t -> bool
(** True for the three flooding addresses 0xFFFD-0xFFFF. *)

val pp_cls : Format.formatter -> cls -> unit

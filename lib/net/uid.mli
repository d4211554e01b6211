(** 48-bit unique identifiers.

    Every switch and every host controller carries a 48-bit UID in ROM
    (paper section 3.7).  UID order matters: the reconfiguration algorithm
    elects the switch with the smallest UID as the spanning-tree root and
    uses UIDs to break parent and link-direction ties. *)

type t
(** An opaque 48-bit identifier.  Total order is numeric. *)

val of_int : int -> t
(** [of_int n] builds a UID from the low 48 bits of [n].  Raises
    [Invalid_argument] if [n] is negative or exceeds 48 bits. *)

val to_int : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool

val min : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Rendered like a MAC address: ["00:00:00:00:2a:01"]. *)

val to_string : t -> string

val arbitrary : Autonet_sim.Rng.t -> t
(** A random UID, for tests and topology generators. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

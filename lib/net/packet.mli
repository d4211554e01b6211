(** Autonet packets (paper section 6.8).

    The wire format is a 32-byte Autonet header (destination and source
    short addresses, type, 26 bytes of encryption information), an opaque
    body, and an 8-byte CRC trailer.  For client packets ([typ = Client])
    the body is an encapsulated Ethernet datagram; control protocols
    (reconfiguration, SRP, connectivity probes) use their own type values
    and define their own body codecs on top of {!Wire}. *)

type typ =
  | Client           (** type 1: encapsulated Ethernet datagram *)
  | Reconfiguration  (** type 2: tree-position / topology-report messages *)
  | Srp              (** type 3: source-routed debugging protocol *)
  | Connectivity     (** type 4: connectivity test and reply *)
  | Other of int

val typ_to_int : typ -> int
val typ_of_int : int -> typ
val equal_typ : typ -> typ -> bool

type trace = {
  tr_origin : int;  (** originating fault id (0: boot) *)
  tr_parent : int;  (** the sending switch *)
  tr_hop : int;  (** the sender's hop count from the epoch initiator *)
}
(** Causal trace context for reconfiguration messages.  This is a
    simulator-only sideband: it never reaches the wire — {!encode},
    {!decode}, {!wire_size} and {!equal} all ignore it — so attaching
    it perturbs neither timing nor behaviour, and a decoded packet
    always carries [None]. *)

type t = {
  dst : Short_address.t;
  src : Short_address.t;
  typ : typ;
  enc_info : string;
      (** the 26-byte encryption information field (paper 6.8): all zeroes
          for cleartext; the receiving controller reads it to decide
          whether and how to decrypt *)
  body : string;
  trace : trace option;  (** sideband causal context; not wire data *)
}

val make :
  ?enc_info:string ->
  ?trace:trace ->
  dst:Short_address.t -> src:Short_address.t -> typ:typ -> body:string ->
  unit -> t
(** [enc_info] defaults to cleartext (all zeroes); it must be exactly
    {!encryption_info_bytes} long.  [trace] defaults to [None]. *)

val encryption_info_bytes : int
(** 26. *)

val cleartext_info : string

val is_encrypted : t -> bool
(** True when the encryption information is not all zeroes. *)

val client :
  ?enc_info:string -> dst:Short_address.t -> src:Short_address.t -> Eth.t -> t
(** Wrap an Ethernet datagram as a client packet. *)

val eth_of_client : t -> Eth.t
(** Raises {!Wire.Malformed} if the packet is not a well-formed client
    packet. *)

val header_bytes : int
(** 32: short addresses, type, encryption information. *)

val trailer_bytes : int
(** 8: the CRC field. *)

val wire_size : t -> int
(** Total bytes on the wire: header + body + trailer. *)

val max_broadcast_wire_size : int
(** Largest packet that may use a broadcast short address: a maximal
    Ethernet packet plus the Autonet header and trailer (about 1550 bytes,
    paper section 6.2). *)

val encode : t -> string
(** Full wire encoding including a valid CRC trailer. *)

val decode : string -> t * bool
(** [decode s] parses a wire encoding; the boolean reports whether the CRC
    was valid.  Raises {!Wire.Truncated} on short input. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

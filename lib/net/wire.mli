(** Binary encoding helpers shared by all packet and message codecs.

    Writers append big-endian fields to a growable buffer; readers consume
    from a byte string and raise {!Truncated} when the input is too short.
    All multi-byte integers are big-endian, matching conventional network
    order.  Both sides move a whole field at a time: one capacity or
    bounds check per field, not per byte. *)

exception Truncated
(** Raised by readers on short input. *)

exception Malformed of string
(** Raised by higher-level decoders on structurally invalid input. *)

module Writer : sig
  type t

  val create : ?initial_size:int -> unit -> t
  (** [initial_size] (default 64) is the buffer's starting capacity; it
      doubles when a write needs more. *)

  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u48 : t -> int -> unit
  val u64 : t -> int64 -> unit
  val bytes : t -> bytes -> unit
  val string : t -> string -> unit

  val lstring : t -> string -> unit
  (** 16-bit length prefix followed by the raw bytes. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  (** 16-bit count prefix, then each element via the callback. *)

  val contents : t -> string
  (** The bytes written so far.  When they fill the buffer exactly — a
      writer created with [initial_size] equal to what it then writes —
      the buffer itself becomes the string and nothing is copied; later
      writes move the writer to a new buffer. *)
end

module Reader : sig
  (** A failed read consumes nothing: every reader that raises
      {!Truncated} (and {!list}, whatever its element reader raises)
      leaves {!remaining} where it was. *)

  type t

  val of_string : string -> t
  val remaining : t -> int
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val u48 : t -> int
  val u64 : t -> int64
  val take : t -> int -> string

  val skip_prefix : t -> string -> bool
  (** If the unread input starts with the given bytes, consume them and
      return [true]; otherwise consume nothing and return [false].  The
      comparison reads the input in place, without copying it. *)

  val lstring : t -> string
  (** Inverse of {!Writer.lstring}. *)

  val list : t -> (t -> 'a) -> 'a list
  (** Inverse of {!Writer.list}. *)

  val expect_end : t -> unit
  (** Raises {!Malformed} if input remains. *)
end

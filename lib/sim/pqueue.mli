(** Growable binary min-heap keyed by [(time, seq)].

    The sequence number breaks ties so that events scheduled for the same
    instant fire in scheduling order, which keeps simulations deterministic
    regardless of heap internals.

    Keys live in unboxed [int] arrays and a value stays in one slot while
    it is queued, so neither {!add} (below a capacity doubling) nor any
    read or {!take} allocates. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:Time.t -> seq:int -> 'a -> unit

val min_time : 'a t -> Time.t
(** Time key of the minimum element.  Raises [Invalid_argument] when the
    queue is empty. *)

val top : 'a t -> 'a
(** The minimum element, left in the queue.  Raises [Invalid_argument]
    when the queue is empty. *)

val take : 'a t -> 'a
(** Remove and return the minimum element.  Raises [Invalid_argument]
    when the queue is empty. *)

(** Shared-medium baselines: the FDDI token ring and the Ethernet segment
    the paper positions Autonet against (sections 1 and 3.2).

    Both have the defining architectural property that aggregate bandwidth
    cannot exceed the link/medium bandwidth no matter how many host pairs
    communicate, and latency grows with the station count (token rotation)
    rather than with log(switches).  The models are deterministic
    service-time calculators with those properties — sufficient and honest
    for reproducing the paper's comparisons, which are architectural, not
    measurements of a particular FDDI installation. *)

type t

val fddi : stations:int -> t
(** 100 Mbit/s token ring: one frame transmits at a time; the token walks
    the ring between transmissions (about 1 us per station hop:
    propagation plus station latency). *)

val ethernet : stations:int -> t
(** 10 Mbit/s CSMA/CD segment with a protocol efficiency factor under
    load. *)

val name : t -> string
val stations : t -> int

val media_bandwidth_mbps : t -> float

val aggregate_goodput_mbps : t -> pairs:int -> bytes:int -> float
(** Delivered bandwidth with [pairs] simultaneous conversations streaming
    [bytes]-sized frames: bounded by the medium regardless of [pairs]. *)

val unloaded_latency_ns : t -> bytes:int -> int
(** Mean transfer latency on an otherwise idle medium: token wait (half a
    rotation) or deference, plus serialization. *)

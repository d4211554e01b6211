(** Traffic generators for the data-plane experiments.

    Pair selection covers the patterns the evaluation sweeps over
    (disjoint permutations for the aggregate-bandwidth experiment, uniform
    random for load studies, hotspot for congestion), and the source
    functions plug directly into {!Autonet_dataplane.Flit_sim.set_source}
    or drive the packet simulator through an engine. *)

open Autonet_net
open Autonet_core

type pattern =
  | Permutation   (** a random perfect matching: disjoint pairs *)
  | Uniform       (** each source picks a random distinct destination *)
  | Hotspot       (** every source sends to one victim host *)
  | Neighbor      (** each host sends to the next host in list order *)

val choose_pairs :
  rng:Autonet_sim.Rng.t ->
  hosts:Graph.endpoint list ->
  pattern ->
  (Graph.endpoint * Graph.endpoint) list
(** Source/destination pairs over the given host ports.  [Permutation]
    yields floor(n/2) disjoint pairs; the others one pair per host. *)

(** {1 Flit-simulator sources} *)

val saturating :
  dst:Short_address.t -> bytes:int ->
  slot:int -> (Short_address.t * int) option
(** Always has another packet: full offered load. *)

val fixed_count :
  dst:Short_address.t -> bytes:int -> count:int ->
  unit -> slot:int -> (Short_address.t * int) option
(** [count] packets back to back, then silence.  The [unit] argument
    creates the mutable counter, one per source. *)

val poisson :
  rng:Autonet_sim.Rng.t -> dst:Short_address.t -> bytes:int ->
  load:float ->
  unit -> slot:int -> (Short_address.t * int) option
(** Open-loop Poisson arrivals at [load] (fraction of link rate, 0-1):
    mean gap between packet starts is [bytes / load] slots. *)

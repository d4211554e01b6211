(** Topology generators.

    Each builder returns a {!Autonet_core.Graph.t} populated with switches
    (and optionally hosts).  Switch UIDs default to [0x1000 + i] in switch
    order; pass [uid_of] to permute them — the spanning-tree root is the
    smallest UID, so permuting UIDs exercises root election and the
    orientation tie-breaks.

    The SRC service network of the paper is [torus ~rows:4 ~cols:8] with
    [hosts_per_switch:8] and dual-homed hosts: 30 switches would be an
    irregular 4x8 torus; the paper calls it "an approximate 4 x 8 torus",
    and [src_service_lan] reproduces that shape by dropping two switches
    from a full 4x8 torus while keeping it connected. *)

open Autonet_net
open Autonet_core

val shuffled_uids : Autonet_sim.Rng.t -> int -> int -> Uid.t
(** [shuffled_uids rng n] pre-computes a random permutation of the default
    UIDs ([0x1000 + i]) for [n] switches and returns the lookup function. *)

type t = {
  graph : Graph.t;
  name : string;
}

val line : ?uid_of:(int -> Uid.t) -> n:int -> unit -> t
(** [n] switches in a chain. *)

val ring : ?uid_of:(int -> Uid.t) -> n:int -> unit -> t

val star : ?uid_of:(int -> Uid.t) -> leaves:int -> unit -> t
(** One hub switch cabled to [leaves] leaf switches ([leaves] <= 12). *)

val tree : ?uid_of:(int -> Uid.t) -> arity:int -> depth:int -> unit -> t
(** Complete [arity]-ary tree of switches with the given [depth] (a depth
    of 0 is a single switch). *)

val torus : ?uid_of:(int -> Uid.t) -> rows:int -> cols:int -> unit -> t
(** Wrap-around grid.  Dimensions of 1 or 2 avoid duplicate parallel links
    by collapsing the wrap link. *)

val mesh : ?uid_of:(int -> Uid.t) -> rows:int -> cols:int -> unit -> t
(** Grid without wrap-around. *)

val random_connected :
  ?uid_of:(int -> Uid.t) -> rng:Autonet_sim.Rng.t -> n:int -> extra_links:int ->
  unit -> t
(** A uniformly random spanning tree over [n] switches plus [extra_links]
    additional random links between switches with free ports (parallel
    trunks and loops excluded). *)

val attach_hosts : ?dual_homed:bool -> t -> per_switch:int -> t
(** Attach [per_switch] host {e ports} to every switch (ports permitting).
    With [dual_homed] (default true) consecutive port pairs across
    neighbouring switches belong to the same host controller, so each
    controller has an active and an alternate attachment; otherwise each
    port is its own single-homed host.  Host UIDs count up from
    0x800000. *)

val figure9 : unit -> t * (Graph.endpoint * Graph.endpoint * Graph.endpoint)
(** The five-switch broadcast-deadlock scenario of the paper's Figure 9:
    switches V, W, X, Y, Z (indices 0-4) with tree links V-W, V-X, X-Z,
    W-Y, the cross link Y-Z, and hosts A at V, B at W, C at Z.  UIDs are
    chosen so that V is the root and the Y-Z cross link's up end is Y,
    making B->W->Y->Z->C the minimal legal route the figure describes.
    Returns the topology and the host ports of (A, B, C). *)

val src_service_lan : ?uid_of:(int -> Uid.t) -> unit -> t
(** The paper's 30-switch service network: a 4x8 torus with two switches
    removed, four inter-switch links per switch (where present) and eight
    host ports per switch, hosts dual-homed (~120 host ports). *)

val spec_grammar : string
(** The grammar {!of_spec} accepts, as one line for help texts and error
    messages. *)

val of_spec : string -> seed:int64 -> hosts:int -> t
(** Build the topology a spec names (see {!spec_grammar}): [src] is
    {!src_service_lan}, [figure9] the topology of {!figure9}, and each
    other family calls its builder with the spec's numbers in order.
    [seed] feeds [random] only; [hosts] > 0 then attaches that many
    (dual-homed) host ports per switch.  Raises [Invalid_argument] naming
    the spec and the grammar on a malformed spec, and the builder's
    [Invalid_argument] on numbers it rejects. *)

val pp : Format.formatter -> t -> unit

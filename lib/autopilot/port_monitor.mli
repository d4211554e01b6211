(** Port-state monitoring: the status sampler, the connectivity monitor and
    the two skeptics (paper sections 6.5.3-6.5.5).

    The status sampler polls the hardware status of every external port each
    sampling interval and classifies ports among [Dead], [Checking], [Host]
    and [Switch_who]; the status skeptic stretches the error-free probation
    a port must serve before leaving [Dead].  The connectivity monitor
    probes ports in the [Switch_*] states with test packets: a proper reply
    from another switch promotes [Switch_who] to [Switch_good] once the
    connectivity skeptic's hold is served; a reply carrying our own UID
    reveals a looped or reflecting cable; missed replies demote
    [Switch_good] back to [Switch_who].

    The monitor announces every state change through [on_transition]; the
    owning Autopilot triggers a network-wide reconfiguration when the
    change touches [Switch_good].

    The sampler's tick reads every port when {!Fabric.status_version} has
    moved since its last full sweep, or after {!reset}.  Otherwise it reads
    only the ports its last sample left able to act on an unchanged
    status: every port except those in s.dead reading errors with no
    clean interval under way, in s.checking reading idhy, in s.host
    reading clean or host, and in an s.switch state reading clean.  A
    skipped read would have returned the same status and done nothing, so
    every transition lands at the same instant as with a full sweep. *)

open Autonet_net
open Autonet_core

type transition = {
  port : int;
  from_state : Port_state.t;
  into_state : Port_state.t;
  neighbor : (Uid.t * int) option;
      (** verified neighbour (uid, remote port) when entering Switch_good *)
}

type t

val create :
  fabric:Fabric.t ->
  switch:Graph.switch ->
  uid:Uid.t ->
  send:(port:int -> Messages.t -> unit) ->
  sw_version:(unit -> int) ->
  on_transition:(transition -> unit) ->
  log:(Event.t -> unit) ->
  unit ->
  t

val start : t -> unit
(** Begin sampling and probing, each an {!Autonet_sim.Engine.every}
    timer.  All ports boot in [Dead] and send idhy. *)

val stop : t -> unit
(** Cancel both timers (switch power-off). *)

val reset : t -> unit
(** Return every port to the boot state — s.dead, idhy outbound, skeptics
    and neighbour knowledge forgotten — without firing transition
    callbacks.  Called when the switch (re)boots: the link units reset, so
    the neighbours' monitors notice the dead ports and re-verify, which is
    how a rebooted switch gets pulled into the network's current epoch. *)

val state : t -> port:int -> Port_state.t

val neighbor : t -> port:int -> (Uid.t * int) option
(** The verified neighbour of a [Switch_good] port. *)

val skeptic_holds : t -> (int * Autonet_sim.Time.t * Autonet_sim.Time.t) list
(** [(port, status hold, connectivity hold)] for every external port: the
    hold-down each skeptic would currently impose.  Invariant checkers use
    this to assert the backoff never escapes its configured cap. *)

val good_ports : t -> (int * Uid.t * int) list
(** [(port, neighbour uid, neighbour port)] for every [Switch_good] port,
    ascending by port. *)

val handle_message : t -> port:int -> Messages.t -> bool
(** Process [Conn_test]/[Conn_reply]; returns false when the message is not
    for the monitor. *)

val force_dead : t -> port:int -> unit
(** Administrative demotion (used by tests and by the storm defence). *)

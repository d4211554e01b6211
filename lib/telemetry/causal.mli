(** Causal reconfiguration tracing: a view over a {!Timeline}.

    Where the phase derivation of {!Timeline} observes an epoch as one
    global pipeline, this view answers the per-switch questions: which
    switch learned the epoch from which neighbour, at what simulated
    time, and where the heal latency went.  Autopilot reconfiguration
    messages carry a sideband trace context (origin fault, sending
    switch, hop count — see {!Autonet_net.Packet.trace}), and every
    switch's timeline marks record how it heard each epoch
    ([Epoch_start]), when its tree position settled ([Position]), when
    it was configured ([Configured]: tables loaded and host ports
    enabled at one sim instant) and the skeptic hold-downs that delayed
    it ([Skeptic_wait]).  The injected faults ([Fault]) number the wave
    origins.  Replaying those marks reconstructs the epoch propagation
    forest — wave-front depth over time, per-hop latency percentiles,
    the slowest-path critical chain and per-switch heal latency.

    Every timestamp is simulated time, so all derived output is
    byte-identical however many domains the table-synthesis pool uses.

    The chaos reproducers and the [trace] command also dump per-switch
    flight recorders: each switch's newest logged events, rendered by
    the network harness (the telemetry layer sits below the autopilot
    and cannot see its event type). *)

module Time = Autonet_sim.Time

type recorder_entry = { fr_time : Time.t; fr_epoch : int64; fr_msg : string }
(** One flight-recorder line: sim time, the switch's epoch then, and the
    rendered event. *)

(** {1 Reconstruction} *)

type node = {
  n_switch : int;
  n_parent : int;  (** switch id, or -1 for a wave root *)
  n_via_port : int;  (** arrival port of the joining message, or -1 *)
  n_hop : int;
  n_origin : int;  (** origin fault id, 0 for boot *)
  n_heard : Time.t;
  n_position : Time.t;  (** final tree position; heard time if never adopted *)
  n_configured : Time.t option;
      (** tables loaded and host ports enabled (one sim instant); the
          JSON repeats it as [loaded_ns] and [enabled_ns] *)
  n_hop_ns : int option;  (** heard - parent's heard, when the parent is in the wave *)
  n_heal_ns : int option;
      (** configured - origin fault time (wave start for boot) *)
  n_skeptic_ns : int;  (** attributed skeptic hold-down total *)
}

type dist = { d_count : int; d_p50 : int; d_p90 : int; d_max : int }
(** Nearest-rank percentiles over a latency population, in ns. *)

type wave = {
  w_epoch : int64;
  w_origin : int;
  w_origin_label : string;  (** ["boot"] for origin 0 *)
  w_origin_time : Time.t;  (** fault injection time; wave start for boot *)
  w_start : Time.t;  (** earliest heard *)
  w_end : Time.t;  (** latest milestone *)
  w_complete : bool;  (** every node reached [Configured] *)
  w_nodes : node list;  (** ascending by switch; one entry per switch *)
  w_depth : int;  (** max hop *)
  w_fanout : int;  (** max direct children of any node *)
  w_critical : int list;  (** switch chain, root first, to the slowest node *)
  w_hop : dist option;  (** per-hop propagation latency *)
  w_heal : dist option;  (** per-switch heal latency *)
  w_front : (Time.t * int * int) list;
      (** wave front over time: (heard time, hop, switches heard so far),
          one entry per node in heard order *)
}

val waves : Timeline.t -> wave list
(** Replays the timeline's marks; ascending by epoch. *)

val last_complete : Timeline.t -> wave option

val validate_wave : wave -> (unit, string) result
(** Structural soundness: roots have hop 0; every non-root's parent is
    in the wave, one hop above, and heard the epoch no later. *)

(** {1 Rendering} *)

val pp_wave : Format.formatter -> wave -> unit
(** Wave summary plus the propagation forest as an indented tree. *)

val to_json : recorders:(int * recorder_entry list) list -> Timeline.t -> Json.t
(** The timeline's waves and the given flight recorders (per switch,
    entries oldest first), deterministically ordered. *)

val to_trace_json : Timeline.t -> Json.t
(** Chrome [trace_event] export with one track per switch: each wave
    node becomes [tree]/[tables]/[enable] spans on the switch's own
    tid ([enable] is zero-width: configured is one instant),
    complementing the global per-epoch track of
    {!Timeline.to_trace_json}. *)

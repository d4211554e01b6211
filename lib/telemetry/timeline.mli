(** Reconfiguration phase timelines.

    A timeline collects {!mark}s — timestamped milestones of an epoch's
    progress.  Each switch's Autopilot derives its marks from the typed
    events it logs, and the network harness adds the fault-injection
    instants.  From them the timeline derives a per-epoch breakdown of
    the paper's reconfiguration pipeline: monitor detection,
    spanning-tree construction, termination detection, report
    accumulation, address assignment, table flood and table load.  The
    derived phases are contiguous, so they nest inside the epoch span and
    their durations sum exactly to the epoch duration.

    The same marks also carry what {!Causal} needs to rebuild each
    epoch's propagation wave: how every switch heard the epoch, when its
    tree position settled, and the skeptic hold-downs that delayed it.

    The breakdown exports as a Chrome [trace_event] JSON file (open in
    chrome://tracing or Perfetto) and as an {!Autonet_analysis.Report}
    table. *)

type heard = {
  parent : int;  (** the sending switch, or [-1] for an initiator *)
  via_port : int;  (** arrival port of the joining message, or [-1] *)
  hop : int;  (** 0 for an initiator, else the sender's hop + 1 *)
  origin : int;  (** the {!Fault} the epoch traces back to, 0 for boot *)
}
(** How a switch entered an epoch: the sideband trace context of the
    message that carried it (see {!Autonet_net.Packet.trace}). *)

type kind =
  | Detection  (** the harness started measuring a reconfiguration;
                   recorded before the new epoch number exists, so the
                   mark's epoch is ignored and it is attributed to the
                   next epoch to start *)
  | Fault of string  (** the harness injected the labelled fault; a
                         detection mark that also numbers a causal wave
                         origin (from 1, in recording order) *)
  | Epoch_start of heard  (** a switch entered the epoch *)
  | Position  (** a switch adopted a new tree position; causal only *)
  | Skeptic_wait of Autonet_sim.Time.t
      (** a skeptic hold-down of the given length began; causal only *)
  | Tree_stable  (** a switch's subtree became stable (may repeat if the
                     tree is perturbed mid-epoch; derivation uses the
                     last occurrence) *)
  | Reports_closed  (** the root saw a reference-closed topology report
                        and computed its tables — the report accumulation
                        endpoint *)
  | Load_begin  (** a switch began its step-5 table reload *)
  | Configured  (** a switch finished the destructive reload and enabled
                    its host ports (one closure, one sim instant) *)

type mark = {
  m_time : Autonet_sim.Time.t;
  m_epoch : int64;  (** [-1L] when unknown at mark time (detection) *)
  m_tid : int;  (** switch number, or [-1] for network-level marks *)
  m_kind : kind;
}

type t

val create : unit -> t
(** An empty timeline; it records every {!mark} and {!span}. *)

val mark : t -> time:Autonet_sim.Time.t -> epoch:int64 -> tid:int -> kind -> unit

val marks : t -> mark list
(** In the order recorded (chronological: sim time never runs backward). *)

val faults : t -> int
(** How many {!Fault} marks were recorded: the id of the latest wave
    origin, or 0 if none. *)

(** {1 Compute spans}

    A span records the duration of a compute step (step 5's
    [full_build], [delta_classify] and [delta_apply], as the epoch cache
    runs them) anchored at the sim time it ran at.  The duration is measured on
    whatever clock the recorder injected: the wall clock for the
    benches ([sp_wall = true]), or a deterministic tick for the smoke
    runs, whose spans must be byte-identical across runs and domain
    counts.  Spans are free-floating: they are not part of the
    contiguous phase derivation and {!validate_trace} ignores them. *)

type span = {
  sp_time : Autonet_sim.Time.t;  (** sim-time anchor *)
  sp_epoch : int64;
  sp_tid : int;  (** switch number, or [-1] for network-level spans *)
  sp_name : string;
  sp_dur_ns : int;
  sp_wall : bool;  (** measured on the wall clock (vs an injected one) *)
}

val span :
  t ->
  ?wall:bool ->
  time:Autonet_sim.Time.t ->
  epoch:int64 -> tid:int -> name:string -> dur_ns:int -> unit -> unit
(** [wall] defaults to [true]. *)

val spans : t -> span list
(** In the order recorded. *)

(** {1 Phase derivation}

    The derivation and the Chrome export read only the phase kinds:
    [Position] and [Skeptic_wait] marks leave them unchanged. *)

val phase_names : string list
(** In pipeline order: [detection; spanning_tree; termination;
    accumulation; assignment; flood; table_load]. *)

type phase = {
  ph_name : string;
  ph_start : Autonet_sim.Time.t;
  ph_stop : Autonet_sim.Time.t;
}

type epoch_spans = {
  es_epoch : int64;
  es_start : Autonet_sim.Time.t;
  es_stop : Autonet_sim.Time.t;
  es_complete : bool;
      (** The epoch ran to configuration: it has an [Epoch_start], a
          [Reports_closed] and a [Configured] mark.  Incomplete epochs
          (superseded mid-flight by a newer one) carry no phases. *)
  es_phases : phase list;  (** contiguous; sums to [es_stop - es_start] *)
}

val epochs : t -> epoch_spans list
(** Ascending by epoch number. *)

val shape : t -> (string * int) list
(** Stable shape features for coverage signatures, in a fixed order:
    [epochs_complete], [epochs_incomplete], one [dominant_<phase>] per
    {!phase_names} entry counting the complete epochs whose sim time that
    phase dominated (ties break toward the earlier pipeline phase), then
    one [total_<phase>_s] per phase summing that phase's sim time in
    whole seconds across all complete epochs.  Deterministic for a
    deterministic run; the fuzzer buckets these values into its schedule
    signature. *)

val phase_report : t -> Autonet_analysis.Report.t
(** One row per complete epoch: each phase's duration and the total. *)

val span_report : t -> Autonet_analysis.Report.t
(** One row per recorded compute span: epoch, switch, span name and
    wall-clock duration.  Empty when no spans were recorded. *)

(** {1 Chrome trace export} *)

val to_trace_json : t -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}].  Epoch and phase
    spans are complete ("ph":"X") events on tid 0; marks other than
    [Position] and [Skeptic_wait] are instants on tid [switch+1]
    (detection marks on tid 0); compute spans are "X" events with cat
    ["compute"] on tid [switch+1] whose [dur] is wall-clock (flagged
    [wall_clock] in [args]); [ts]/[dur] are microseconds (floats) and
    every span's [args] carries the exact nanosecond values. *)

val validate_trace : Json.t -> (unit, string) result
(** The smoke check: every phase span must lie inside its epoch's span,
    phases of an epoch must be contiguous and in pipeline order, and
    their nanosecond durations must sum to the epoch's duration.
    Requires at least one epoch span.  Validation uses the exact [args]
    nanosecond fields, not the rounded microsecond [ts]/[dur]. *)

(** Per-switch circular event logs and the merged-log debugging tool
    (paper section 6.7).

    Each Autopilot keeps an in-memory circular log of reconfiguration
    events, timestamped with its {e local} clock — which drifts from true
    time by a per-switch offset, as real switch clocks did.  Merging logs
    requires normalizing those timestamps; the [merge] function does what
    the paper's offline tool did, given the known offsets.

    Entries are typed {!Event.t}s; {!message} renders one for the
    merged-log tool and the SRP [Get_log] reply. *)

type t

type entry = {
  local_time : int;
  epoch : Autonet_core.Epoch.t;  (** the switch's epoch when it logged *)
  event : Event.t;
}

val message : entry -> string
(** [Event.to_string entry.event]. *)

val create : ?capacity:int -> clock_skew:Autonet_sim.Time.t -> unit -> t
(** [capacity] defaults to 512 entries; older entries are overwritten. *)

val capacity : t -> int

val skew : t -> Autonet_sim.Time.t

val log :
  t -> now:Autonet_sim.Time.t -> epoch:Autonet_core.Epoch.t -> Event.t -> unit
(** Record an event; the stored timestamp is [now + skew]. *)

val logf :
  t ->
  now:Autonet_sim.Time.t ->
  epoch:Autonet_core.Epoch.t ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Record an {!Event.Generic} built from a format string. *)

val entries : t -> entry list
(** Oldest first, at most [capacity]. *)

val length : t -> int
(** Entries currently retained. *)

val total_logged : t -> int
(** Including overwritten ones. *)

val merge : (string * t) list -> (Autonet_sim.Time.t * string * string) list
(** [merge [(name, log); ...]] normalizes each log's timestamps by its skew
    and interleaves them chronologically: the paper's "powerful tool for
    discovering functional and performance anomalies". *)

(** Typed Autopilot log events.

    The per-switch {!Event_log} stores these instead of raw strings, so
    tools can pattern-match on what happened (the chaos invariant oracle,
    the telemetry pipeline) while {!to_string} keeps the merged-log tool's
    human-readable rendering — the strings are exactly the ones the log
    carried before events were typed. *)

open Autonet_core

type skeptic_kind = Status | Conn

type t =
  | Boot
  | Power_off
  | Software_boot of { version : int }
  | Port_transition of {
      port : int;
      from_state : Port_state.t;
      into_state : Port_state.t;
    }
  | Skeptic_backoff of {
      port : int;
      skeptic : skeptic_kind;
      hold : Autonet_sim.Time.t;  (** the lengthened hold-down *)
    }
  | Reconfig_started of { reason : string }
  | Epoch_started of { epoch : Epoch.t; usable_links : int }
  | Position_adopted of { position : Spanning_tree.Position.t }
      (** a tree-build round: this switch moved in the spanning tree *)
  | Subtree_stable
      (** every neighbour acknowledged this switch's position and every
          claiming child reported: a timeline milestone only — the
          Autopilot does not keep it in the event log or count it *)
  | Root_stable of { switches : int }
      (** the root's definitive unstable-to-stable transition *)
  | Report_waiting of { switches : int }
      (** root stable but the accumulated report is not reference-closed *)
  | Tables_computed of { switches : int; number : int }
  | Root_verified of { tables : int }
  | Root_deadlock of { detail : string }
  | Delta_applied of {
      rebuilt : int;
      patched : int;
      reused : int;
      dests : int;
      deadlock_full : bool;
    }
      (** the epoch took the incremental (delta) path: how many tables
          were rebuilt / patched / reused and how many destinations'
          route BFSes re-ran; [deadlock_full] when the incremental
          certificate could not prove safety and the full checker ran *)
  | Delta_fallback of { reason : string }
      (** cached state existed but classification said structural: the
          full epoch ran, with the first mismatch found *)
  | Table_loading of { constant : bool }
      (** a destructive reload began: step 1 ([constant]) or step 5 *)
  | Configured of { number : int }
  | Host_port_enabled of { port : int }
  | Host_port_disabled of { port : int }
  | Malformed_packet of { port : int }
      (** dropped: a packet that does not decode, or a child's subtree
          report that contradicts the reports this switch holds *)
  | Srp_response of { detail : string }
  | Generic of string  (** freeform, for call sites with no structure *)

val to_string : t -> string

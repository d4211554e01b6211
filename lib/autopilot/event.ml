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
      hold : Autonet_sim.Time.t;
    }
  | Reconfig_started of { reason : string }
  | Epoch_started of { epoch : Epoch.t; usable_links : int }
  | Position_adopted of { position : Spanning_tree.Position.t }
  | Subtree_stable
  | Root_stable of { switches : int }
  | Report_waiting of { switches : int }
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
  | Delta_fallback of { reason : string }
  | Table_loading of { constant : bool }
  | Configured of { number : int }
  | Host_port_enabled of { port : int }
  | Host_port_disabled of { port : int }
  | Malformed_packet of { port : int }
  | Srp_response of { detail : string }
  | Generic of string

let skeptic_kind_to_string = function Status -> "status" | Conn -> "conn"

let to_string = function
  | Boot -> "boot"
  | Power_off -> "power off"
  | Software_boot { version } -> Printf.sprintf "booting Autopilot v%d" version
  | Port_transition { port; from_state; into_state } ->
    Printf.sprintf "port %d: %s -> %s" port
      (Port_state.to_string from_state)
      (Port_state.to_string into_state)
  | Skeptic_backoff { port; skeptic; hold } ->
    Format.asprintf "port %d: %s skeptic backoff, hold %a" port
      (skeptic_kind_to_string skeptic)
      Autonet_sim.Time.pp hold
  | Reconfig_started { reason } -> "reconfiguration: " ^ reason
  | Epoch_started { epoch; usable_links } ->
    Format.asprintf "start %a with %d usable links" Epoch.pp epoch usable_links
  | Position_adopted { position } ->
    Format.asprintf "position %a" Spanning_tree.Position.pp position
  | Subtree_stable -> "subtree stable"
  | Root_stable { switches } ->
    Printf.sprintf "stable as root: %d switches known" switches
  | Report_waiting { switches } ->
    Printf.sprintf "stable but report not closed (%d switches): waiting"
      switches
  | Tables_computed { switches; number } ->
    Printf.sprintf "computing tables: %d switches, number %d" switches number
  | Root_verified { tables } ->
    Printf.sprintf "root verify: %d tables deadlock-free" tables
  | Root_deadlock { detail } ->
    "root verify: DEADLOCK in computed tables: " ^ detail
  | Delta_applied { rebuilt; patched; reused; dests; deadlock_full } ->
    Printf.sprintf
      "delta epoch: %d rebuilt, %d patched, %d reused, %d dests re-run%s"
      rebuilt patched reused dests
      (if deadlock_full then " (full deadlock check)" else "")
  | Delta_fallback { reason } -> "delta fallback (full epoch): " ^ reason
  | Table_loading { constant } ->
    if constant then "loading constant table" else "loading computed tables"
  | Configured { number } -> Printf.sprintf "configured (number %d)" number
  | Host_port_enabled { port } -> Printf.sprintf "enable host port %d" port
  | Host_port_disabled { port } -> Printf.sprintf "disable host port %d" port
  | Malformed_packet { port } ->
    Printf.sprintf "malformed packet on port %d" port
  | Srp_response { detail } -> "srp response: " ^ detail
  | Generic s -> s

open Autonet_net
open Autonet_core
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module Forwarding_table = Autonet_switch.Forwarding_table
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline

(* Counters resolved once at creation; shared across the network's pilots
   through the common registry.  [None] (no registry) compiles the
   instrumentation out of the receive path entirely. *)
type tel_counters = {
  ct_packets : Metrics.counter;
  ct_reset_losses : Metrics.counter;
  ct_malformed : Metrics.counter;
  ct_reconfigs : Metrics.counter;
  ct_configs : Metrics.counter;
  ct_transitions : Metrics.counter;
  ct_backoffs : Metrics.counter;
  ct_events : Metrics.counter;
  ct_delta_hits : Metrics.counter;
  ct_delta_fallbacks : Metrics.counter;
  ct_delta_rebuilt : Metrics.counter;
}

type stats = {
  reconfigurations_started : int;
  configurations_completed : int;
  packets_lost_to_reset : int;
  last_epoch_started_at : Time.t option;
  last_configured_at : Time.t option;
}

type t = {
  fabric : Fabric.t;
  epochs : Epoch_cache.t;  (* the network's; received reports intern to it *)
  sw : Graph.switch;
  sw_uid : Uid.t;
  table : Forwarding_table.t;
  log : Event_log.t;
  counters : tel_counters option;
  timeline : Timeline.t option;
  mutable heard : Timeline.heard;
      (* how we entered the current epoch; its hop count and origin fault
         ride outgoing reconfiguration messages as the sideband trace
         context *)
  mutable monitor : Port_monitor.t option;
  mutable reconfig : Reconfig.t option;
  mutable is_powered : bool;
  mutable loading_until : Time.t;
  mutable reload_seq : int;
      (* current table reload; stale finish closures must not fire *)
  mutable retransmit_timer : Engine.handle option;
  host_enabled : bool array;
  mutable version : int;
  mutable advertised_version : int;
      (* the version probes and offers carry: lags [version] by the
         propagation delay after a reboot — the damping knob *)
  mutable stats : stats;
}

let params t = Fabric.params t.fabric
let now t = Engine.now (Fabric.engine t.fabric)

let switch t = t.sw
let uid t = t.sw_uid
let forwarding_table t = t.table
let event_log t = t.log
let powered t = t.is_powered

let reconfig_exn t =
  match t.reconfig with
  | Some r -> r
  | None -> invalid_arg "Autopilot: not initialized"

let monitor_exn t =
  match t.monitor with
  | Some m -> m
  | None -> invalid_arg "Autopilot: not initialized"

let epoch t = Reconfig.epoch (reconfig_exn t)
let configured t = t.is_powered && Reconfig.configured (reconfig_exn t)
let position t = Reconfig.position (reconfig_exn t)
let port_state t ~port = Port_monitor.state (monitor_exn t) ~port
let skeptic_holds t = Port_monitor.skeptic_holds (monitor_exn t)
let switch_number t = Reconfig.switch_number (reconfig_exn t)
let complete_report t = Reconfig.complete_report (reconfig_exn t)
let changes t = Reconfig.changes (reconfig_exn t)
let delta_spec t = Reconfig.delta_spec (reconfig_exn t)
let root_verdict t = Reconfig.root_verdict (reconfig_exn t)

let stats t = t.stats

let current_epoch t =
  match t.reconfig with Some r -> Reconfig.epoch r | None -> Epoch.zero

let is_root t = Uid.equal (position t).Spanning_tree.Position.root t.sw_uid

(* The phase-timeline mark an event stands for, if any. *)
let mark_of_event t = function
  | Event.Epoch_started _ -> Some (Timeline.Epoch_start t.heard)
  | Event.Position_adopted _ -> Some Timeline.Position
  | Event.Skeptic_backoff { hold; _ } -> Some (Timeline.Skeptic_wait hold)
  | Event.Subtree_stable -> Some Timeline.Tree_stable
  | Event.Tables_computed _ when is_root t -> Some Timeline.Reports_closed
  | Event.Table_loading { constant = false } -> Some Timeline.Load_begin
  | Event.Configured _ -> Some Timeline.Configured
  | _ -> None

(* The one recorder: every event — from the monitor, the reconfig
   instance or the pilot itself — funnels through here into the circular
   log, the stats, the metrics registry and the phase timeline, and no
   other code counts an event.  [Subtree_stable] is a timeline milestone
   only. *)
let record_event t e =
  (match e with
  | Event.Reconfig_started _ ->
    t.stats <-
      { t.stats with
        reconfigurations_started = t.stats.reconfigurations_started + 1;
        last_epoch_started_at = Some (now t) }
  | Event.Configured _ ->
    t.stats <-
      { t.stats with
        configurations_completed = t.stats.configurations_completed + 1;
        last_configured_at = Some (now t) }
  | _ -> ());
  (match e with
  | Event.Subtree_stable -> ()
  | _ -> (
    Event_log.log t.log ~now:(now t) ~epoch:(current_epoch t) e;
    match t.counters with
    | None -> ()
    | Some c ->
      Metrics.incr c.ct_events;
      (match e with
      | Event.Reconfig_started _ -> Metrics.incr c.ct_reconfigs
      | Event.Configured _ -> Metrics.incr c.ct_configs
      | Event.Port_transition _ -> Metrics.incr c.ct_transitions
      | Event.Skeptic_backoff _ -> Metrics.incr c.ct_backoffs
      | Event.Malformed_packet _ -> Metrics.incr c.ct_malformed
      | Event.Delta_applied { rebuilt; patched; _ } ->
        Metrics.incr c.ct_delta_hits;
        Metrics.add c.ct_delta_rebuilt (rebuilt + patched)
      | Event.Delta_fallback _ -> Metrics.incr c.ct_delta_fallbacks
      | _ -> ())));
  match t.timeline with
  | Some tl -> (
    match mark_of_event t e with
    | Some kind ->
      Timeline.mark tl ~time:(now t)
        ~epoch:(Epoch.to_int64 (current_epoch t))
        ~tid:t.sw kind
    | None -> ())
  | None -> ()

let send t ~port msg =
  (* Reconfiguration messages carry the sideband causal context — who is
     sending, how far from the initiator, and which fault started the
     wave.  The sideband never reaches the wire (it is excluded from
     encode/size/equality), so attaching it unconditionally keeps the
     traced and untraced simulations event-identical. *)
  let trace =
    match Messages.epoch_of msg with
    | Some _ ->
      Some
        { Packet.tr_origin = t.heard.Timeline.origin;
          tr_parent = t.sw;
          tr_hop = t.heard.Timeline.hop }
    | None -> None
  in
  Fabric.switch_send t.fabric ~from:t.sw ~port (Messages.to_packet ?trace msg)

(* --- Host ports (paper 6.5.3: a port that becomes s.host after a
   reconfiguration is enabled in the local forwarding table without a new
   one).  [host_enabled] records the ports this epoch has logged as
   enabled.  Before the switch has a number nothing is logged: no port
   has been enabled since the epoch began.  The rows are edited only in
   a loaded table; a load reconciles them with the ports that are hosts
   at that instant. --- *)

let set_host_port t q ~host =
  match switch_number t with
  | None -> ()
  | Some number ->
    if t.host_enabled.(q) <> host then begin
      t.host_enabled.(q) <- host;
      record_event t
        (if host then Event.Host_port_enabled { port = q }
         else Event.Host_port_disabled { port = q })
    end;
    if configured t then begin
      let spec = Forwarding_table.spec t.table in
      if host then Tables.add_host_port spec ~number ~port:q
      else Tables.remove_host_port spec ~number ~port:q
    end

(* --- Reconfiguration wiring --- *)

let is_host t q = Port_state.equal (port_state t ~port:q) Port_state.Host

let snapshot_and_start t ?join ?via reason =
  if t.is_powered then begin
    let usable = Port_monitor.good_ports (monitor_exn t) in
    (* Causal context for the new epoch: an initiator starts a fresh wave
       at hop 0 traced to the latest fault; a joiner inherits origin and
       hop from the message that carried the larger epoch.  It must be
       set before [start_epoch]: the [Epoch_started] mark and the
       position announcements already carry it. *)
    let latest_fault () =
      match t.timeline with Some tl -> Timeline.faults tl | None -> 0
    in
    t.heard <-
      (match via with
      | Some (port, Some tr) ->
        { Timeline.parent = tr.Packet.tr_parent; via_port = port;
          hop = tr.Packet.tr_hop + 1; origin = tr.Packet.tr_origin }
      | Some (port, None) ->
        { Timeline.parent = -1; via_port = port; hop = 0;
          origin = latest_fault () }
      | None ->
        { Timeline.parent = -1; via_port = -1; hop = 0;
          origin = latest_fault () });
    record_event t (Event.Reconfig_started { reason });
    Array.fill t.host_enabled 0 (Array.length t.host_enabled) false;
    Reconfig.start_epoch (reconfig_exn t) ?join ~usable
      ~host_ports:
        (List.filter (is_host t)
           (List.init (Forwarding_table.max_ports t.table) (fun i -> i + 1)))
      ()
  end

let initiate_reconfiguration t ~reason = snapshot_and_start t reason

let software_version t = t.version

let force_port_dead t ~port = Port_monitor.force_dead (monitor_exn t) ~port

(* A reload clears the table immediately, destroys packets arriving during
   the brief reset window, and brings the new table into service after the
   full computation + load time. *)
let begin_reload t ~finish =
  Forwarding_table.clear t.table;
  (* A reload can be overtaken: a new epoch starts (its own reload clears
     the table again) or the switch power-cycles before the load completes.
     The overtaken finish must not fire — a stale one would install the
     previous epoch's table and mark the switch configured while the
     current epoch is still in progress, so a convergence check sampled in
     the next reload window would see configured switches with empty
     tables.  (Found by the chaos campaign; see test_chaos.) *)
  t.reload_seq <- t.reload_seq + 1;
  let seq = t.reload_seq in
  let p = params t in
  t.loading_until <- Time.add (now t) p.Params.reset_time;
  ignore
    (Engine.schedule (Fabric.engine t.fabric) ~delay:p.Params.table_load_time
       (fun () -> if t.is_powered && t.reload_seq = seq then finish ()))

let make_callbacks t =
  { Reconfig.cb_send = (fun ~port msg -> send t ~port msg);
    cb_load_constant =
      (fun () ->
        record_event t (Event.Table_loading { constant = true });
        begin_reload t ~finish:(fun () ->
            Forwarding_table.load_constant t.table));
    cb_load_tables =
      (fun spec ->
        record_event t (Event.Table_loading { constant = false });
        begin_reload t ~finish:(fun () ->
            Forwarding_table.load_spec t.table spec;
            Reconfig.note_configured (reconfig_exn t);
            (* The spec holds the epoch snapshot's host ports: enable the
               ports that became hosts since and drop those that left. *)
            for q = 1 to Forwarding_table.max_ports t.table do
              set_host_port t q ~host:(is_host t q)
            done));
    cb_configured =
      (fun () ->
        record_event t
          (Event.Configured
             { number = Option.value ~default:(-1) (switch_number t) }));
    cb_log = (fun e -> record_event t e) }

(* --- Lifecycle --- *)

let start t =
  if not t.is_powered then begin
    t.is_powered <- true;
    Fabric.power_on_switch t.fabric t.sw;
    Forwarding_table.load_constant t.table;
    record_event t Event.Boot;
    Port_monitor.start (monitor_exn t);
    t.retransmit_timer <-
      Some
        (Engine.every (Fabric.engine t.fabric)
           ~period:
             (Params.round_to_timer (params t)
                (params t).Params.retransmit_interval)
           (fun () -> Reconfig.on_retransmit_timer (reconfig_exn t)));
    (* Enter epoch 1 immediately: an isolated switch configures itself;
       links found later trigger further epochs. *)
    snapshot_and_start t "boot"
  end

(* --- Software rollout (paper 5.4, 7) --- *)

let rec release_version t ~version =
  if version > t.version && t.is_powered then begin
    record_event t (Event.Software_boot { version });
    t.version <- version;
    (* Booting the new version loses all volatile state: power cycle. *)
    power_off t;
    start t;
    (* After the propagation delay, offer the version to the neighbours;
       they reboot in turn, sweeping the rollout across the network. *)
    let delay =
      Params.round_to_timer (params t) (params t).Params.version_propagation_delay
    in
    ignore
      (Engine.schedule (Fabric.engine t.fabric) ~delay (fun () ->
           if t.is_powered then begin
             t.advertised_version <- t.version;
             for port = 1 to Graph.max_ports (Fabric.graph t.fabric) do
               send t ~port (Messages.Version_offer { version = t.version })
             done
           end))
  end

and power_off t =
  if t.is_powered then begin
    record_event t Event.Power_off;
    t.is_powered <- false;
    Port_monitor.stop (monitor_exn t);
    (match t.retransmit_timer with Some h -> Engine.cancel h | None -> ());
    t.retransmit_timer <- None;
    Reconfig.stop (reconfig_exn t);
    (* Invalidate any in-flight reload: its finish must not fire into the
       state of a later reboot. *)
    t.reload_seq <- t.reload_seq + 1;
    Forwarding_table.clear t.table;
    Fabric.power_off_switch t.fabric t.sw
  end

(* --- SRP --- *)

let execute_srp t request =
  match request with
  | Messages.Get_state ->
    let g = Fabric.graph t.fabric in
    let port_states =
      List.init (Graph.max_ports g) (fun i ->
          let p = i + 1 in
          (p, port_state t ~port:p))
    in
    Messages.State
      { uid = t.sw_uid; epoch = epoch t; configured = configured t; port_states }
  | Messages.Get_log { max_entries } ->
    let entries = Event_log.entries t.log in
    let n = List.length entries in
    let tail =
      if n <= max_entries then entries
      else List.filteri (fun i _ -> i >= n - max_entries) entries
    in
    Messages.Log_entries
      (List.map (fun e -> (e.Event_log.local_time, Event_log.message e)) tail)
  | Messages.Get_topology -> begin
    match complete_report t with
    | Some r -> Messages.Topology r
    | None -> Messages.No_data
  end

let handle_srp t ~port msg =
  match msg with
  | Messages.Srp_request { route; reply_route; request } -> begin
    match route with
    | [] ->
      (* Execute here and send the response back out the port the request
         arrived on; the accumulated reply route steers the rest of the
         way. *)
      let response = execute_srp t request in
      send t ~port (Messages.Srp_response { route = reply_route; response })
    | out :: rest ->
      send t ~port:out
        (Messages.Srp_request
           { route = rest; reply_route = port :: reply_route; request })
  end
  | Messages.Srp_response { route; response } -> begin
    match route with
    | [] ->
      (* We are the origin of the probe: record what came back. *)
      record_event t
        (Event.Srp_response
           { detail =
               (match response with
        | Messages.State { uid = u; epoch = e; configured = cfg; port_states } ->
          Format.asprintf "state of %a: %a configured=%b good-ports=%d" Uid.pp
            u Epoch.pp e cfg
            (List.length
               (List.filter
                  (fun (_, st) -> st = Port_state.Switch_good)
                  port_states))
        | Messages.Log_entries es ->
          Printf.sprintf "%d log entries" (List.length es)
        | Messages.Topology r ->
          Printf.sprintf "topology of %d switches" (Topology_report.size r)
        | Messages.No_data -> "no data") })
    | out :: rest ->
      send t ~port:out (Messages.Srp_response { route = rest; response })
  end
  | _ -> ()

(* --- Receive dispatch --- *)

let on_receive t ~port packet =
  (match t.counters with
  | Some c -> Metrics.incr c.ct_packets
  | None -> ());
  if not t.is_powered then ()
  else if now t < t.loading_until then begin
    (* The data path is resetting: the packet is destroyed. *)
    t.stats <-
      { t.stats with packets_lost_to_reset = t.stats.packets_lost_to_reset + 1 };
    match t.counters with
    | Some c -> Metrics.incr c.ct_reset_losses
    | None -> ()
  end
  else
    match Messages.of_packet ~epochs:t.epochs packet with
    | exception (Wire.Malformed _ | Wire.Truncated) ->
      record_event t (Event.Malformed_packet { port })
    | msg ->
      (* A neighbour running newer software pulls us up, whether the news
         arrives as an explicit offer or on a connectivity probe. *)
      (match msg with
      | Messages.Conn_test { sw_version; _ }
      | Messages.Conn_reply { sw_version; _ }
      | Messages.Version_offer { version = sw_version } ->
        if sw_version > t.version then release_version t ~version:sw_version
      | _ -> ());
      if Port_monitor.handle_message (monitor_exn t) ~port msg then ()
      else begin
        match msg with
        | Messages.Host_query { token; host_uid = _ } -> begin
          match switch_number t with
          | Some number when configured t ->
            send t ~port
              (Messages.Host_addr
                 { token;
                   address = Short_address.assigned ~switch_number:number ~port })
          | Some _ | None -> () (* not configured: silence, host retries *)
        end
        | Messages.Host_addr _ | Messages.Version_offer _ -> ()
        | Messages.Srp_request _ | Messages.Srp_response _ ->
          handle_srp t ~port msg
        | _ -> begin
          match Reconfig.handle_message (reconfig_exn t) ~port msg with
          | `Handled | `Ignored -> ()
          | `Join_epoch e ->
            snapshot_and_start t ~join:e
              ~via:(port, packet.Packet.trace)
              "joining larger epoch";
            (match Reconfig.handle_message (reconfig_exn t) ~port msg with
            | `Handled | `Ignored -> ()
            | `Join_epoch _ -> assert false)
        end
      end

let on_transition t (tr : Port_monitor.transition) =
  if t.is_powered then begin
    if
      Port_state.triggers_reconfiguration ~from:tr.Port_monitor.from_state
        ~into:tr.Port_monitor.into_state
    then
      snapshot_and_start t
        (Printf.sprintf "port %d %s -> %s" tr.Port_monitor.port
           (Port_state.to_string tr.Port_monitor.from_state)
           (Port_state.to_string tr.Port_monitor.into_state))
    else if
      Port_state.equal tr.Port_monitor.into_state Port_state.Host
      || Port_state.equal tr.Port_monitor.from_state Port_state.Host
    then
      set_host_port t tr.Port_monitor.port
        ~host:(Port_state.equal tr.Port_monitor.into_state Port_state.Host)
  end

(* --- Lifecycle --- *)

let create ~fabric ~epochs ~switch ?(clock_skew = Time.zero) ?metrics
    ?timeline () =
  let g = Fabric.graph fabric in
  let counters =
    Option.map
      (fun m ->
        { ct_packets = Metrics.counter m "autopilot.packets_received";
          ct_reset_losses = Metrics.counter m "autopilot.packets_lost_to_reset";
          ct_malformed = Metrics.counter m "autopilot.malformed_packets";
          ct_reconfigs = Metrics.counter m "autopilot.reconfigurations";
          ct_configs = Metrics.counter m "autopilot.configurations";
          ct_transitions = Metrics.counter m "autopilot.port_transitions";
          ct_backoffs = Metrics.counter m "autopilot.skeptic_backoffs";
          ct_events = Metrics.counter m "autopilot.events_logged";
          ct_delta_hits = Metrics.counter m "autopilot.delta_hits";
          ct_delta_fallbacks = Metrics.counter m "autopilot.delta_fallbacks";
          ct_delta_rebuilt =
            Metrics.counter m "autopilot.delta_switches_rebuilt" })
      metrics
  in
  let t =
    { fabric;
      epochs;
      sw = switch;
      sw_uid = Graph.uid g switch;
      table = Forwarding_table.create ~max_ports:(Graph.max_ports g);
      log = Event_log.create ~clock_skew ();
      counters;
      timeline;
      heard = { Timeline.parent = -1; via_port = -1; hop = 0; origin = 0 };
      monitor = None;
      reconfig = None;
      is_powered = false;
      loading_until = Time.zero;
      reload_seq = 0;
      retransmit_timer = None;
      host_enabled = Array.make (Graph.max_ports g + 1) false;
      version = 1;
      advertised_version = 1;
      stats =
        { reconfigurations_started = 0; configurations_completed = 0;
          packets_lost_to_reset = 0; last_epoch_started_at = None;
          last_configured_at = None } }
  in
  let monitor =
    Port_monitor.create ~fabric ~switch ~uid:t.sw_uid
      ~send:(fun ~port msg -> send t ~port msg)
      ~sw_version:(fun () -> t.advertised_version)
      ~on_transition:(fun tr -> on_transition t tr)
      ~log:(fun e -> record_event t e)
      ()
  in
  let reconfig =
    Reconfig.create ~fabric ~epochs ~switch ~uid:t.sw_uid
      ~callbacks:(make_callbacks t) ()
  in
  t.monitor <- Some monitor;
  t.reconfig <- Some reconfig;
  Fabric.attach_switch fabric switch ~rx:(fun ~port packet ->
      on_receive t ~port packet);
  t

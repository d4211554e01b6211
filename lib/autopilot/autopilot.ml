open Autonet_net
open Autonet_core
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module Forwarding_table = Autonet_switch.Forwarding_table
module Port_vector = Autonet_switch.Port_vector
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline
module Causal = Autonet_telemetry.Causal

type flood_info = { fi_parent : int option; fi_children : int list }

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

type t = {
  fabric : Fabric.t;
  sw : Graph.switch;
  sw_uid : Uid.t;
  table : Forwarding_table.t;
  log : Event_log.t;
  counters : tel_counters option;
  timeline : Timeline.t option;
  causal : Causal.t option;
  span_clock : (unit -> float) option;
      (* when set, compute spans read this instead of the wall clock *)
  mutable tr_hop : int;
      (* our hop count from the current epoch's initiator; rides outgoing
         reconfiguration messages as the sideband trace context *)
  mutable tr_origin : int;
      (* the fault id the current epoch traces back to (0: boot) *)
  mutable monitor : Port_monitor.t option;
  mutable reconfig : Reconfig.t option;
  mutable is_powered : bool;
  mutable loading_until : Time.t;
  mutable reload_seq : int;
      (* current table reload; stale finish closures must not fire *)
  mutable retransmit_timer : Engine.handle option;
  mutable on_configured : (t -> unit) option;
  mutable host_enabled : bool array;
  mutable flood : flood_info option;
  mutable version : int;
  mutable advertised_version : int;
      (* the version probes and offers carry: lags [version] by the
         propagation delay after a reboot — the damping knob *)
  (* stats *)
  mutable st_reconfigs : int;
  mutable st_configs : int;
  mutable st_reset_losses : int;
  mutable st_epoch_started : Time.t option;
  mutable st_configured_at : Time.t option;
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
let assignment t = Reconfig.assignment (reconfig_exn t)
let complete_report t = Reconfig.complete_report (reconfig_exn t)
let delta_spec t = Reconfig.delta_spec (reconfig_exn t)
let root_verdict t = Reconfig.root_verdict (reconfig_exn t)

type stats = {
  reconfigurations_started : int;
  configurations_completed : int;
  packets_lost_to_reset : int;
  last_epoch_started_at : Time.t option;
  last_configured_at : Time.t option;
}

let stats t =
  { reconfigurations_started = t.st_reconfigs;
    configurations_completed = t.st_configs;
    packets_lost_to_reset = t.st_reset_losses;
    last_epoch_started_at = t.st_epoch_started;
    last_configured_at = t.st_configured_at }

let set_on_configured t f = t.on_configured <- Some f

let causal_epoch t =
  match t.reconfig with
  | Some r -> Epoch.to_int64 (Reconfig.epoch r)
  | None -> 0L

(* The flight-recorder rendering of an event.  [Root_verified] reports
   the pool's domain count, which the causal dumps must not: they are
   byte-compared across {1,2,4} domains. *)
let recorder_string = function
  | Event.Root_verified { tables; _ } ->
    Printf.sprintf "root verify: %d tables deadlock-free" tables
  | e -> Event.to_string e

(* Every event — typed or freeform, from the monitor, the reconfig
   instance or the pilot itself — funnels through here, so the metrics
   registry can count the interesting kinds in one place. *)
let record_event t e =
  Event_log.log t.log ~now:(now t) e;
  (match t.causal with
  | Some cz when Causal.enabled cz ->
    let time = now t in
    let epoch = causal_epoch t in
    (match e with
    | Event.Position_adopted _ ->
      Causal.position_known cz ~sw:t.sw ~epoch ~time
    | Event.Skeptic_backoff { hold; _ } ->
      Causal.skeptic_wait cz ~sw:t.sw ~time ~hold
    | _ -> ());
    Causal.record cz ~sw:t.sw ~time ~epoch (recorder_string e)
  | _ -> ());
  match t.counters with
  | None -> ()
  | Some c ->
    Metrics.incr c.ct_events;
    (match e with
    | Event.Port_transition _ -> Metrics.incr c.ct_transitions
    | Event.Skeptic_backoff _ -> Metrics.incr c.ct_backoffs
    | Event.Malformed_packet _ -> Metrics.incr c.ct_malformed
    | Event.Delta_applied { rebuilt; patched; _ } ->
      Metrics.incr c.ct_delta_hits;
      Metrics.add c.ct_delta_rebuilt (rebuilt + patched)
    | Event.Delta_fallback _ -> Metrics.incr c.ct_delta_fallbacks
    | _ -> ())

let mark t kind =
  match t.timeline with
  | None -> ()
  | Some tl ->
    Timeline.mark tl ~time:(now t)
      ~epoch:(Epoch.to_int64 (Reconfig.epoch (reconfig_exn t)))
      ~tid:t.sw kind

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
        { Packet.tr_origin = t.tr_origin; tr_parent = t.sw; tr_hop = t.tr_hop }
    | None -> None
  in
  Fabric.switch_send t.fabric ~from:t.sw ~port (Messages.to_packet ?trace msg)

(* --- Host ports plugged in after the last reconfiguration (paper 6.5.3:
   the local forwarding table is updated without a reconfiguration). --- *)

let enable_host_port t q =
  match switch_number t with
  | None -> () (* enabled when configuration completes *)
  | Some number ->
    if not t.host_enabled.(q) then begin
      t.host_enabled.(q) <- true;
      record_event t (Event.Host_port_enabled { port = q });
      (* Inbound: the port behaves like the control processor (both enter
         the network in the Up phase), so copy row 0. *)
      if not (Forwarding_table.has_row t.table ~in_port:q) then
        List.iter
          (fun (addr, e) ->
            Forwarding_table.set t.table ~in_port:q ~dst:addr e)
          (Forwarding_table.rows_of t.table ~in_port:0);
      (* Local specials for a host port. *)
      Forwarding_table.set t.table ~in_port:q ~dst:Short_address.local_switch
        { vector = Port_vector.singleton 0; broadcast = false };
      (* The control processor's own assigned address: in_port 0 carries no
         row for it (the CP never table-routes to itself), so copying row 0
         above leaves host-to-local-CP traffic blackholed.  A host does not
         know its destination shares its switch, so the assigned address
         must work too.  (Found by the chaos campaign.) *)
      Forwarding_table.set t.table ~in_port:q
        ~dst:(Short_address.assigned ~switch_number:number ~port:0)
        { vector = Port_vector.singleton 0; broadcast = false };
      Forwarding_table.set t.table ~in_port:q ~dst:Short_address.loopback
        { vector = Port_vector.singleton q; broadcast = false };
      (* Delivery of the port's own address from every receiving port. *)
      let addr = Short_address.assigned ~switch_number:number ~port:q in
      let deliver =
        { Forwarding_table.vector = Port_vector.singleton q; broadcast = false }
      in
      for in_port = 0 to Forwarding_table.max_ports t.table do
        Forwarding_table.set t.table ~in_port ~dst:addr deliver
      done;
      (* Include the port in the down-phase broadcast delivery sets. *)
      match t.flood with
      | None -> ()
      | Some { fi_parent; fi_children } ->
        let down_rows =
          match fi_parent with
          | Some pp -> [ pp ]
          | None -> 0 :: fi_children (* at the root, origination floods *)
        in
        List.iter
          (fun in_port ->
            List.iter
              (fun dst ->
                let e = Forwarding_table.lookup t.table ~in_port ~dst in
                if e.Forwarding_table.broadcast then
                  Forwarding_table.set t.table ~in_port ~dst
                    { e with
                      Forwarding_table.vector =
                        Port_vector.add q e.Forwarding_table.vector })
              [ Short_address.broadcast_all; Short_address.broadcast_hosts ])
          down_rows
    end

let disable_host_port t q =
  if q < Array.length t.host_enabled && t.host_enabled.(q) then begin
    t.host_enabled.(q) <- false;
    record_event t (Event.Host_port_disabled { port = q });
    (match switch_number t with
    | Some number ->
      let addr = Short_address.assigned ~switch_number:number ~port:q in
      for in_port = 0 to Forwarding_table.max_ports t.table do
        Forwarding_table.unset t.table ~in_port ~dst:addr
      done
    | None -> ());
    List.iter
      (fun (addr, _) -> Forwarding_table.unset t.table ~in_port:q ~dst:addr)
      (Forwarding_table.rows_of t.table ~in_port:q);
    (* Remove from broadcast delivery sets wherever it appears. *)
    for in_port = 0 to Forwarding_table.max_ports t.table do
      List.iter
        (fun dst ->
          let e = Forwarding_table.lookup t.table ~in_port ~dst in
          if e.Forwarding_table.broadcast
             && Port_vector.mem q e.Forwarding_table.vector
          then
            Forwarding_table.set t.table ~in_port ~dst
              { e with
                Forwarding_table.vector =
                  Port_vector.remove q e.Forwarding_table.vector })
        [ Short_address.broadcast_all; Short_address.broadcast_hosts ]
    done
  end

(* --- Reconfiguration wiring --- *)

let host_ports_now t =
  let g = Fabric.graph t.fabric in
  List.filter
    (fun p -> Port_state.equal (port_state t ~port:p) Port_state.Host)
    (List.init (Graph.max_ports g) (fun i -> i + 1))

let snapshot_and_start t ?join ?via reason =
  if t.is_powered then begin
    let usable = Port_monitor.good_ports (monitor_exn t) in
    t.st_reconfigs <- t.st_reconfigs + 1;
    t.st_epoch_started <- Some (now t);
    (match t.counters with
    | Some c -> Metrics.incr c.ct_reconfigs
    | None -> ());
    (* Causal context for the new epoch: an initiator starts a fresh wave
       at hop 0 traced to the latest fault; a joiner inherits origin and
       hop from the message that carried the larger epoch. The fields
       must be set before [start_epoch] — its position announcements
       already carry them. *)
    let parent, via_port =
      match via with
      | Some (port, Some tr) ->
        t.tr_hop <- tr.Packet.tr_hop + 1;
        t.tr_origin <- tr.Packet.tr_origin;
        (tr.Packet.tr_parent, port)
      | Some (port, None) ->
        t.tr_hop <- 0;
        t.tr_origin <-
          (match t.causal with Some c -> Causal.origin_id c | None -> 0);
        (-1, port)
      | None ->
        t.tr_hop <- 0;
        t.tr_origin <-
          (match t.causal with Some c -> Causal.origin_id c | None -> 0);
        (-1, -1)
    in
    record_event t (Event.Reconfig_started { reason });
    Array.fill t.host_enabled 0 (Array.length t.host_enabled) false;
    t.flood <- None;
    Reconfig.start_epoch (reconfig_exn t) ?join ~usable
      ~host_ports:(host_ports_now t) ();
    match t.causal with
    | Some c ->
      Causal.epoch_heard c ~sw:t.sw ~epoch:(causal_epoch t) ~time:(now t)
        ~parent ~via_port ~hop:t.tr_hop ~origin:t.tr_origin
    | None -> ()
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
      (fun spec ~parent ~children ->
        record_event t (Event.Table_loading { constant = false });
        begin_reload t ~finish:(fun () ->
            Forwarding_table.load_spec t.table spec;
            (* Remember the flood structure for late host-port enables. *)
            t.flood <- Some { fi_parent = parent; fi_children = children };
            (match t.causal with
            | Some c ->
              Causal.tables_loaded c ~sw:t.sw ~epoch:(causal_epoch t)
                ~time:(now t)
            | None -> ());
            Reconfig.note_configured (reconfig_exn t);
            (* Hosts that appeared after the epoch snapshot. *)
            List.iter (fun q -> enable_host_port t q) (host_ports_now t);
            (match t.causal with
            | Some c ->
              Causal.ports_enabled c ~sw:t.sw ~epoch:(causal_epoch t)
                ~time:(now t)
            | None -> ())));
    cb_configured =
      (fun () ->
        t.st_configs <- t.st_configs + 1;
        t.st_configured_at <- Some (now t);
        (match t.counters with
        | Some c -> Metrics.incr c.ct_configs
        | None -> ());
        record_event t
          (Event.Configured
             { number = Option.value ~default:(-1) (switch_number t) });
        match t.on_configured with Some f -> f t | None -> ());
    cb_log = (fun e -> record_event t e);
    cb_mark = (fun kind -> mark t kind);
    cb_span =
      (fun ~name ~dur_s ->
        match t.timeline with
        | None -> ()
        | Some tl ->
          Timeline.span tl
            ~wall:(Option.is_none t.span_clock)
            ~time:(now t)
            ~epoch:(Epoch.to_int64 (Reconfig.epoch (reconfig_exn t)))
            ~tid:t.sw ~name
            ~dur_ns:(int_of_float (dur_s *. 1e9))
            ());
    cb_clock =
      (match t.span_clock with Some f -> f | None -> Unix.gettimeofday) }

(* --- Lifecycle --- *)

let rec schedule_retransmit t =
  if t.is_powered then
    t.retransmit_timer <-
      Some
        (Engine.schedule (Fabric.engine t.fabric)
           ~delay:
             (Params.round_to_timer (params t)
                (params t).Params.retransmit_interval)
           (fun () ->
             if t.is_powered then begin
               Reconfig.on_retransmit_timer (reconfig_exn t);
               schedule_retransmit t
             end))

let start t =
  if not t.is_powered then begin
    t.is_powered <- true;
    Fabric.power_on_switch t.fabric t.sw;
    Forwarding_table.load_constant t.table;
    record_event t Event.Boot;
    Port_monitor.start (monitor_exn t);
    schedule_retransmit t;
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
    t.st_reset_losses <- t.st_reset_losses + 1;
    match t.counters with
    | Some c -> Metrics.incr c.ct_reset_losses
    | None -> ()
  end
  else
    match Messages.of_packet packet with
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
    else begin
      if Port_state.equal tr.Port_monitor.into_state Port_state.Host then
        enable_host_port t tr.Port_monitor.port;
      if Port_state.equal tr.Port_monitor.from_state Port_state.Host then
        disable_host_port t tr.Port_monitor.port
    end
  end

(* --- Lifecycle --- *)

let create ~fabric ~switch ?(clock_skew = Time.zero) ?metrics ?timeline ?causal
    ?span_clock () =
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
      sw = switch;
      sw_uid = Graph.uid g switch;
      table = Forwarding_table.create ~max_ports:(Graph.max_ports g);
      log = Event_log.create ~clock_skew ();
      counters;
      timeline;
      causal;
      span_clock;
      tr_hop = 0;
      tr_origin = 0;
      monitor = None;
      reconfig = None;
      is_powered = false;
      loading_until = Time.zero;
      reload_seq = 0;
      retransmit_timer = None;
      on_configured = None;
      host_enabled = Array.make (Graph.max_ports g + 1) false;
      flood = None;
      version = 1;
      advertised_version = 1;
      st_reconfigs = 0;
      st_configs = 0;
      st_reset_losses = 0;
      st_epoch_started = None;
      st_configured_at = None }
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
    Reconfig.create ~fabric ~switch ~uid:t.sw_uid ~callbacks:(make_callbacks t)
      ()
  in
  t.monitor <- Some monitor;
  t.reconfig <- Some reconfig;
  Fabric.attach_switch fabric switch ~rx:(fun ~port packet ->
      on_receive t ~port packet);
  t

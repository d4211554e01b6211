open Autonet_net
open Autonet_core
open Autonet_autopilot
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module Rng = Autonet_sim.Rng
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline
module Causal = Autonet_telemetry.Causal

type telemetry_mode = [ `Off | `Disabled | `On ]

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  net_graph : Graph.t;
  net_params : Params.t;
  net_rng : Rng.t;
  pilots : Autopilot.t array;
  net_metrics : Metrics.t option;
  net_timeline : Timeline.t option;
  net_causal : Causal.t option;
}

let create ?(params = Params.tuned) ?(seed = 1L) ?(telemetry = `Disabled)
    ?span_clock (topo : Autonet_topo.Builders.t) =
  let engine = Engine.create () in
  let net_rng = Rng.create ~seed in
  let fabric =
    Fabric.create ~engine ~graph:topo.Autonet_topo.Builders.graph ~params
      ~rng:(Rng.split net_rng)
  in
  let g = topo.Autonet_topo.Builders.graph in
  let switches = Graph.switch_count g in
  let net_metrics, net_timeline, net_causal =
    match telemetry with
    | `Off -> (None, None, None)
    | `Disabled ->
      (Some (Metrics.create ()), Some (Timeline.create ()),
       Some (Causal.create ~switches ()))
    | `On ->
      (Some (Metrics.create ~enabled:true ()),
       Some (Timeline.create ~enabled:true ()),
       Some (Causal.create ~enabled:true ~switches ()))
  in
  (* Register the snapshot-time gauges up front so a disabled snapshot
     lists the same instruments (at zero) as an enabled one. *)
  (match net_metrics with
  | Some m ->
    ignore (Metrics.gauge m "engine.events_executed");
    ignore (Metrics.gauge m "engine.max_queue_length");
    ignore (Metrics.gauge m "fabric.packets_sent");
    ignore (Metrics.gauge m "fabric.bytes_sent");
    ignore (Metrics.gauge m "causal.wave_depth");
    ignore (Metrics.gauge m "causal.wave_fanout");
    ignore (Metrics.gauge m "causal.wave_critical_hops")
  | None -> ());
  let pilots =
    Array.init switches (fun s ->
        (* Real switch clocks drift; skews make the merged-log tooling
           meaningful. *)
        let clock_skew = Time.us (Rng.int net_rng 200) - Time.us 100 in
        Autopilot.create ~fabric ~switch:s ~clock_skew ?metrics:net_metrics
          ?timeline:net_timeline ?causal:net_causal ?span_clock ())
  in
  { engine; fabric; net_graph = g; net_params = params; net_rng; pilots;
    net_metrics; net_timeline; net_causal }

let engine t = t.engine
let fabric t = t.fabric
let graph t = t.net_graph
let params t = t.net_params
let rng t = t.net_rng
let autopilot t s = t.pilots.(s)
let now t = Engine.now t.engine

(* --- Telemetry --- *)

let metrics t = t.net_metrics
let timeline t = t.net_timeline
let causal t = t.net_causal

let set_telemetry_enabled t v =
  (match t.net_metrics with Some m -> Metrics.set_enabled m v | None -> ());
  (match t.net_causal with Some c -> Causal.set_enabled c v | None -> ());
  match t.net_timeline with Some tl -> Timeline.set_enabled tl v | None -> ()

let telemetry_snapshot t =
  match t.net_metrics with
  | None -> []
  | Some m ->
    Metrics.set_gauge
      (Metrics.gauge m "engine.events_executed")
      (Engine.events_executed t.engine);
    Metrics.set_gauge
      (Metrics.gauge m "engine.max_queue_length")
      (Engine.max_queue_length t.engine);
    let fs = Fabric.stats t.fabric in
    Metrics.set_gauge
      (Metrics.gauge m "fabric.packets_sent")
      fs.Fabric.packets_sent;
    Metrics.set_gauge (Metrics.gauge m "fabric.bytes_sent") fs.Fabric.bytes_sent;
    (* Wave-shape gauges from the most recent fully-healed epoch. *)
    (match Option.bind t.net_causal Causal.last_complete with
    | Some w ->
      Metrics.set_gauge (Metrics.gauge m "causal.wave_depth") w.Causal.w_depth;
      Metrics.set_gauge (Metrics.gauge m "causal.wave_fanout") w.Causal.w_fanout;
      Metrics.set_gauge
        (Metrics.gauge m "causal.wave_critical_hops")
        (Stdlib.max 0 (List.length w.Causal.w_critical - 1))
    | None -> ());
    Metrics.snapshot m

let mark_detection t =
  match t.net_timeline with
  | None -> ()
  | Some tl ->
    Timeline.mark tl ~time:(now t) ~epoch:(-1L) ~tid:(-1) Timeline.Detection

let start t = Array.iter Autopilot.start t.pilots

let run_for t dt = Engine.run t.engine ~until:(Time.add (now t) dt)

(* --- Live topology --- *)

let live_graph t =
  let g = Graph.copy t.net_graph in
  List.iter
    (fun (l : Graph.link) ->
      let sa, _ = l.a and sb, _ = l.b in
      if
        Fabric.link_failed t.fabric l.id
        || (not (Autopilot.powered t.pilots.(sa)))
        || not (Autopilot.powered t.pilots.(sb))
      then Graph.disconnect g l.id)
    (Graph.links t.net_graph);
  g

(* --- Convergence --- *)

let live_components t =
  let g = live_graph t in
  Graph.components g
  |> List.filter_map (fun comp ->
         let powered = List.filter (fun s -> Autopilot.powered t.pilots.(s)) comp in
         if powered = [] then None else Some powered)

(* The configured report must reflect the live switch-to-switch topology of
   the component — a network still running on a pre-fault configuration is
   not converged.  Host ports are compared leniently: plugging a host in or
   out does not reconfigure the network (paper 6.5.3). *)
let report_matches_live live comp r =
  List.for_all
    (fun s ->
      match Topology_report.find r (Graph.uid live s) with
      | None -> false
      | Some d ->
        let live_links =
          List.sort compare
            (List.map
               (fun (p, _, peer, pp) ->
                 (p, Uid.to_int (Graph.uid live peer), pp))
               (Graph.neighbors live s))
        in
        let report_links =
          let acc = ref [] in
          Array.iteri
            (fun p desc ->
              match desc with
              | Topology_report.Switch_link { peer; peer_port } ->
                acc := (p, Uid.to_int peer, peer_port) :: !acc
              | Topology_report.Unused | Topology_report.Host_port -> ())
            d.Topology_report.ports;
          List.sort compare !acc
        in
        live_links = report_links)
    comp

let component_converged t live comp =
  List.for_all (fun s -> Autopilot.configured t.pilots.(s)) comp
  &&
  match comp with
  | [] -> true
  | first :: rest -> (
    let e0 = Autopilot.epoch t.pilots.(first) in
    match Autopilot.complete_report t.pilots.(first) with
    | None -> false
    | Some r0 ->
      Topology_report.size r0 = List.length comp
      && report_matches_live live comp r0
      && List.for_all
           (fun s ->
             Epoch.equal (Autopilot.epoch t.pilots.(s)) e0
             &&
             match Autopilot.complete_report t.pilots.(s) with
             | Some r -> Topology_report.equal r r0
             | None -> false)
           rest)

let converged t =
  let live = live_graph t in
  match live_components t with
  | [] -> false
  | comps -> List.for_all (component_converged t live) comps

let run_until_converged ?(timeout = Time.s 60) t =
  let deadline = Time.add (now t) timeout in
  let slice = Time.ms 2 in
  let rec loop () =
    if converged t then Some (now t)
    else if now t >= deadline then None
    else begin
      Engine.run t.engine ~until:(Time.min deadline (Time.add (now t) slice));
      loop ()
    end
  in
  loop ()

(* --- Faults --- *)

let apply_fault t event =
  (* The injection instant anchors the timeline's detection phase: the
     interval from here to the first epoch start is what the monitors and
     skeptics took to notice. *)
  mark_detection t;
  (* It also seeds a causal wave origin: epochs the fault provokes trace
     their heal latency back to this instant. *)
  (match t.net_causal with
  | Some c ->
    let label =
      match event with
      | Autonet_topo.Faults.Link_down l -> Printf.sprintf "link_down:%d" l
      | Autonet_topo.Faults.Link_up l -> Printf.sprintf "link_up:%d" l
      | Autonet_topo.Faults.Switch_down s -> Printf.sprintf "switch_down:%d" s
      | Autonet_topo.Faults.Switch_up s -> Printf.sprintf "switch_up:%d" s
    in
    Causal.note_fault c ~time:(now t) ~label
  | None -> ());
  match event with
  | Autonet_topo.Faults.Link_down l -> Fabric.fail_link t.fabric l
  | Autonet_topo.Faults.Link_up l -> Fabric.repair_link t.fabric l
  | Autonet_topo.Faults.Switch_down s -> Autopilot.power_off t.pilots.(s)
  | Autonet_topo.Faults.Switch_up s -> Autopilot.start t.pilots.(s)

let schedule_faults t schedule =
  List.iter
    (fun { Autonet_topo.Faults.at; event } ->
      ignore
        (Engine.schedule_at t.engine ~time:at (fun () -> apply_fault t event)))
    (Autonet_topo.Faults.sort schedule)

(* --- Loaded-state inspection --- *)

(* A copy of the forwarding table actually loaded in the switch hardware.
   This is deliberately *not* the spec the Autopilot computed: invariant
   checkers (the chaos oracle) want to walk and deadlock-check the table
   the dataplane would really use, including late host-port enables. *)
let loaded_spec t s =
  Tables.copy ~switch:s
    (Autonet_switch.Forwarding_table.spec
       (Autopilot.forwarding_table t.pilots.(s)))

(* --- Measurement --- *)

type reconfiguration_measure = {
  detection : Time.t;
  reconfiguration : Time.t;
  total : Time.t;
  epochs_used : int;
  control_packets : int;
  control_bytes : int;
}

let measure_reconfiguration ?(timeout = Time.s 60) t ~trigger =
  let before = Array.map Autopilot.stats t.pilots in
  let fabric_before = Fabric.stats t.fabric in
  let t0 = now t in
  mark_detection t;
  trigger t;
  match run_until_converged ~timeout t with
  | None -> None
  | Some t_end ->
    let first_epoch_start = ref None in
    let last_configured = ref t0 in
    let epochs = ref 0 in
    Array.iteri
      (fun i pilot ->
        let s = Autopilot.stats pilot in
        let delta =
          s.Autopilot.reconfigurations_started
          - before.(i).Autopilot.reconfigurations_started
        in
        if delta > 0 then begin
          epochs := Stdlib.max !epochs delta;
          match s.Autopilot.last_epoch_started_at with
          | Some at ->
            (* The stat records the *latest* epoch start; the measurement
               wants the first one after the trigger, so track the minimum
               over switches, which is the initiator's first start. *)
            first_epoch_start :=
              Some
                (match !first_epoch_start with
                | None -> at
                | Some cur -> Time.min cur at)
          | None -> ()
        end;
        match s.Autopilot.last_configured_at with
        | Some at when at > t0 -> last_configured := Time.max !last_configured at
        | _ -> ())
      t.pilots;
    let fabric_after = Fabric.stats t.fabric in
    let first = Option.value ~default:t0 !first_epoch_start in
    Some
      { detection = Time.sub first t0;
        reconfiguration = Time.sub !last_configured first;
        total = Time.sub t_end t0;
        epochs_used = !epochs;
        control_packets =
          fabric_after.Fabric.packets_sent - fabric_before.Fabric.packets_sent;
        control_bytes =
          fabric_after.Fabric.bytes_sent - fabric_before.Fabric.bytes_sent }

let pp_measure ppf m =
  Format.fprintf ppf
    "detection %a, reconfiguration %a, total %a (%d epochs, %d pkts, %d bytes)"
    Time.pp m.detection Time.pp m.reconfiguration Time.pp m.total m.epochs_used
    m.control_packets m.control_bytes

(* --- Inspection --- *)

let merged_log t =
  Event_log.merge
    (Array.to_list
       (Array.mapi
          (fun i pilot ->
            (Printf.sprintf "s%d" i, Autopilot.event_log pilot))
          t.pilots))

let verify_against_reference t =
  let g = live_graph t in
  List.for_all
    (fun comp ->
      match comp with
      | [] -> true
      | member :: _ ->
        let tree = Spanning_tree.compute g ~member in
        List.for_all
          (fun s ->
            let pilot = t.pilots.(s) in
            Autopilot.configured pilot
            && Spanning_tree.Position.equal (Autopilot.position pilot)
                 (Spanning_tree.position tree g s)
            &&
            match Autopilot.complete_report pilot with
            | Some r ->
              Topology_report.size r = List.length (Spanning_tree.members tree)
            | None -> false)
          comp)
    (live_components t)

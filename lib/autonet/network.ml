open Autonet_net
open Autonet_core
open Autonet_autopilot
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module Rng = Autonet_sim.Rng
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline
module Causal = Autonet_telemetry.Causal

type telemetry_mode = [ `Disabled | `On ]

type t = {
  engine : Engine.t;
  fabric : Fabric.t;
  net_graph : Graph.t;
  net_params : Params.t;
  pilots : Autopilot.t array;
  epochs : Epoch_cache.t;
  net_metrics : Metrics.t option;
  net_timeline : Timeline.t option;
  (* [converged]'s last answer, and the fabric's status version and the
     sum of the pilots' change counts it was computed under *)
  mutable verdict : bool;
  mutable verdict_status : int;
  mutable verdict_changes : int;
}

let create ?(params = Params.tuned) ?(seed = 1L) ?(telemetry = `Disabled)
    ?span_clock (topo : Autonet_topo.Builders.t) =
  let engine = Engine.create () in
  let net_rng = Rng.create ~seed in
  (* Advance the stream once, as the split the fabric used to take did,
     so every clock skew drawn below stays where it was. *)
  ignore (Rng.next64 net_rng);
  let g = topo.Autonet_topo.Builders.graph in
  let fabric = Fabric.create ~engine ~graph:g ~params in
  let switches = Graph.switch_count g in
  let net_metrics, net_timeline =
    match telemetry with
    | `Disabled -> (None, None)
    | `On -> (Some (Metrics.create ~enabled:true ()), Some (Timeline.create ()))
  in
  (* Register the snapshot-time gauges up front so every snapshot lists
     them, at zero until the first refresh. *)
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
  (* A step-5 compute span is stamped with the sim time, the switch
     whose lookup ran the computation and that switch's epoch; the
     pilots, which need the cache, are filled in below. *)
  let pilots = ref [||] in
  let on_span tl ~uid ~name ~dur_s =
    let s = Option.get (Graph.switch_of_uid g uid) in
    Timeline.span tl ~wall:(Option.is_none span_clock) ~time:(Engine.now engine)
      ~epoch:(Epoch.to_int64 (Autopilot.epoch !pilots.(s)))
      ~tid:s ~name ~dur_ns:(int_of_float (dur_s *. 1e9)) ()
  in
  let epochs =
    Epoch_cache.create ?clock:span_clock
      ?on_span:(Option.map on_span net_timeline) ()
  in
  pilots :=
    Array.init switches (fun s ->
        (* Real switch clocks drift; skews make the merged-log tooling
           meaningful. *)
        let clock_skew = Time.us (Rng.int net_rng 200) - Time.us 100 in
        Autopilot.create ~fabric ~epochs ~switch:s ~clock_skew
          ?metrics:net_metrics ?timeline:net_timeline ());
  let pilots = !pilots in
  { engine; fabric; net_graph = g; net_params = params; pilots;
    epochs; net_metrics; net_timeline;
    verdict = false; verdict_status = -1; verdict_changes = -1 }

let engine t = t.engine
let fabric t = t.fabric
let graph t = t.net_graph
let params t = t.net_params
let autopilot t s = t.pilots.(s)
let epoch_cache t = t.epochs
let now t = Engine.now t.engine

(* --- Telemetry --- *)

let metrics t = t.net_metrics
let timeline t = t.net_timeline

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
    (match Option.bind t.net_timeline Causal.last_complete with
    | Some w ->
      Metrics.set_gauge (Metrics.gauge m "causal.wave_depth") w.Causal.w_depth;
      Metrics.set_gauge (Metrics.gauge m "causal.wave_fanout") w.Causal.w_fanout;
      Metrics.set_gauge
        (Metrics.gauge m "causal.wave_critical_hops")
        (Stdlib.max 0 (List.length w.Causal.w_critical - 1))
    | None -> ());
    Metrics.snapshot m

let mark_network t kind =
  match t.net_timeline with
  | None -> ()
  | Some tl -> Timeline.mark tl ~time:(now t) ~epoch:(-1L) ~tid:(-1) kind

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

let live t =
  let g = live_graph t in
  ( g,
    Graph.components g
    |> List.filter_map (fun comp ->
           let powered =
             List.filter (fun s -> Autopilot.powered t.pilots.(s)) comp
           in
           if powered = [] then None else Some powered) )

let live_components t = snd (live t)

(* A link of [net_graph] is live when the fabric carries it and both ends
   are powered: exactly the links [live_graph] keeps. *)
let link_live t id peer =
  (not (Fabric.link_failed t.fabric id)) && Autopilot.powered t.pilots.(peer)

(* The report must describe [s]'s live switch-to-switch links exactly — a
   network still running on a pre-fault configuration is not converged.
   Every live link must appear at its port, and the report may name no
   other: ports are distinct on both sides, so equal counts close the
   match.  Host ports are compared leniently: plugging a host in or out
   does not reconfigure the network (paper 6.5.3). *)
let describes_live_links t r s =
  match Topology_report.find r (Graph.uid t.net_graph s) with
  | None -> false
  | Some d ->
    let ports = d.Topology_report.ports in
    let matched = ref 0 and ok = ref true in
    Graph.iter_neighbors t.net_graph s (fun p id peer pp ->
        if link_live t id peer then
          if
            p < Array.length ports
            &&
            match ports.(p) with
            | Topology_report.Switch_link { peer = u; peer_port } ->
              Uid.equal u (Graph.uid t.net_graph peer) && peer_port = pp
            | Topology_report.Unused | Topology_report.Host_port -> false
          then incr matched
          else ok := false);
    !ok
    &&
    let described = ref 0 in
    for p = 0 to Array.length ports - 1 do
      match ports.(p) with
      | Topology_report.Switch_link _ -> incr described
      | Topology_report.Unused | Topology_report.Host_port -> ()
    done;
    !described = !matched

(* Walk the live component of [first], its smallest member, marking
   [seen]: every member must share [first]'s epoch and complete report,
   that report must describe each member's live links, and it must name
   exactly the component's switches — the walk's count closes what the
   per-member lookups leave open. *)
let component_converged t seen stack first =
  let p0 = t.pilots.(first) in
  match Autopilot.complete_report p0 with
  | None -> false
  | Some r0 ->
    let e0 = Autopilot.epoch p0 in
    let member s =
      let p = t.pilots.(s) in
      Epoch.equal (Autopilot.epoch p) e0
      && (match Autopilot.complete_report p with
         | Some r -> Topology_report.equal r r0
         | None -> false)
      && describes_live_links t r0 s
    in
    seen.(first) <- true;
    stack.(0) <- first;
    let top = ref 1 and members = ref 0 and ok = ref true in
    while !ok && !top > 0 do
      decr top;
      let s = stack.(!top) in
      incr members;
      ok := member s;
      Graph.iter_neighbors t.net_graph s (fun _ id peer _ ->
          if (not seen.(peer)) && link_live t id peer then begin
            seen.(peer) <- true;
            stack.(!top) <- peer;
            incr top
          end)
    done;
    !ok && Topology_report.size r0 = !members

(* Every powered switch lies in some live component, and a component
   with an unconfigured switch is not converged, so checking the switches
   first answers exactly as the components would while an epoch is still
   running.  The walk then reads [net_graph] in place; [live_graph]'s copy
   serves only [live] and its once-per-reconfiguration callers. *)
let walk t =
  Array.for_all
    (fun p -> (not (Autopilot.powered p)) || Autopilot.configured p)
    t.pilots
  &&
  let n = Array.length t.pilots in
  let seen = Array.make n false and stack = Array.make n 0 in
  let components = ref 0 and ok = ref true and s = ref 0 in
  while !ok && !s < n do
    if (not seen.(!s)) && Autopilot.powered t.pilots.(!s) then begin
      incr components;
      ok := component_converged t seen stack !s
    end;
    incr s
  done;
  !ok && !components > 0

(* The walk reads link failures and switch power, which move the fabric's
   status version, and each pilot's epoch, configured flag and complete
   report, which move its change count; the counts only grow, so their
   sum moves with any of them.  While neither moves the answer stands. *)
let converged t =
  let status = Fabric.status_version t.fabric
  and changes = Array.fold_left (fun n p -> n + Autopilot.changes p) 0 t.pilots in
  if status <> t.verdict_status || changes <> t.verdict_changes then begin
    t.verdict <- walk t;
    t.verdict_status <- status;
    t.verdict_changes <- changes
  end;
  t.verdict

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
  (* The injection instant anchors the timeline's detection phase — the
     interval from here to the first epoch start is what the monitors and
     skeptics took to notice — and numbers a causal wave origin: epochs
     the fault provokes trace their heal latency back to this instant. *)
  mark_network t
    (Timeline.Fault
       (match event with
       | Autonet_topo.Faults.Link_down l -> Printf.sprintf "link_down:%d" l
       | Autonet_topo.Faults.Link_up l -> Printf.sprintf "link_up:%d" l
       | Autonet_topo.Faults.Switch_down s -> Printf.sprintf "switch_down:%d" s
       | Autonet_topo.Faults.Switch_up s -> Printf.sprintf "switch_up:%d" s));
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
   the dataplane would really use, including late host-port enables.  The
   copy shares the live table's pages copy-on-write, so it costs the page
   pointers, and the switch's next edit copies the page it touches. *)
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
  mark_network t Timeline.Detection;
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

(* A flight recorder is the tail of a switch's circular log. *)
let recorder_capacity = 64

let recorder log =
  let entries = Event_log.entries log in
  let drop = List.length entries - recorder_capacity in
  List.filteri (fun i _ -> i >= drop) entries
  |> List.map (fun (e : Event_log.entry) ->
         { Causal.fr_time = Time.sub e.local_time (Event_log.skew log);
           fr_epoch = Epoch.to_int64 e.epoch;
           fr_msg = Event.to_string e.event })

let recorders t =
  Array.to_list t.pilots
  |> List.mapi (fun s pilot -> (s, recorder (Autopilot.event_log pilot)))
  |> List.filter (fun (_, entries) -> entries <> [])

let merged_log t =
  Event_log.merge
    (Array.to_list
       (Array.mapi
          (fun i pilot ->
            (Printf.sprintf "s%d" i, Autopilot.event_log pilot))
          t.pilots))

let verify_against_reference t =
  let g, comps = live t in
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
    comps

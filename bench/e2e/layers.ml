(* Outside-in layer instrumentation for the traced run.

   Nothing here reaches into a library: every number is the wall time of
   a call into some layer's public interface, made from this file.  The
   simulation is driven one engine event at a time through
   [Engine.run ~until ~max_events:1], which fires exactly the events
   [Network.run_until_converged] would, so the traced run simulates the
   same network as the untraced one and its deterministic counters must
   agree with it.  After each convergence the pure pipeline that
   [Reconfig.finish_configuration] runs is replayed on the epoch's
   complete report, together with the forwarding-table load and the
   Complete message codec, so that the time the heavy engine events spend
   can be split between the kernels and the table loads. *)

open Autonet_core
module N = Autonet.Network
module AP = Autonet_autopilot.Autopilot
module Fabric = Autonet_autopilot.Fabric
module Messages = Autonet_autopilot.Messages
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module FT = Autonet_switch.Forwarding_table
module Pool = Autonet_parallel.Pool
module Oracle = Autonet_chaos.Oracle
module Chaos = Autonet_chaos.Chaos

(* Monotonic nanoseconds, as seconds: engine steps take about a
   microsecond, below [Unix.gettimeofday]'s resolution. *)
let clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* An engine step longer than this is "heavy": on the large networks
   those are the handlers that recompute and load tables. *)
let heavy_s = 1e-3

(* Spans past this many are counted but not kept: a long campaign would
   otherwise hold millions of slice spans in memory. *)
let span_cap = 200_000

type span = {
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
  cause : string;  (** the reconfiguration, schedule or execution *)
}

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0. in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let to_list s = Array.to_list (Array.sub s.a 0 s.n)
end

type t = {
  mutable cause : string;
  mutable spans : span list;  (** newest first *)
  mutable nspans : int;
  mutable dropped : int;
  steps : Samples.t;  (** every engine step's wall time, seconds *)
  mutable heavy_n : int;
  mutable heavy_t : float;
  mutable light_t : float;
  mutable stepped_t : float;  (** wall of the stepped loops themselves *)
  mutable conv_calls : int;
  mutable conv_t : float;
  timers : (string, Samples.t) Hashtbl.t;
      (** per-call samples of the replayed layer calls, by metric name *)
  sums : (string, float) Hashtbl.t;  (** per-unit accumulators *)
}

let create () =
  { cause = "";
    spans = [];
    nspans = 0;
    dropped = 0;
    steps = Samples.create ();
    heavy_n = 0;
    heavy_t = 0.;
    light_t = 0.;
    stepped_t = 0.;
    conv_calls = 0;
    conv_t = 0.;
    timers = Hashtbl.create 32;
    sums = Hashtbl.create 16 }

let span r layer name t0 t1 =
  if r.nspans < span_cap then begin
    r.spans <- { layer; name; t0; t1; cause = r.cause } :: r.spans;
    r.nspans <- r.nspans + 1
  end
  else r.dropped <- r.dropped + 1

let sample r name x =
  let s =
    match Hashtbl.find_opt r.timers name with
    | Some s -> s
    | None ->
      let s = Samples.create () in
      Hashtbl.replace r.timers name s;
      s
  in
  Samples.add s x

let samples r name =
  match Hashtbl.find_opt r.timers name with
  | Some s -> Samples.to_list s
  | None -> []

let add r name x =
  Hashtbl.replace r.sums name
    (x +. Option.value ~default:0. (Hashtbl.find_opt r.sums name))

let sum r name = Option.value ~default:0. (Hashtbl.find_opt r.sums name)

(* Time one call into a layer: a span plus a per-call sample. *)
let timed r layer name f =
  let t0 = clock () in
  let x = f () in
  let t1 = clock () in
  sample r name (t1 -. t0);
  span r layer name t0 t1;
  (x, t1 -. t0)

(* Fold several recorders (one per schedule or execution) into one. *)
let merge_into dst src =
  dst.spans <- List.rev_append (List.rev src.spans) dst.spans;
  dst.nspans <- dst.nspans + src.nspans;
  dst.dropped <- dst.dropped + src.dropped;
  List.iter (Samples.add dst.steps) (Samples.to_list src.steps);
  dst.heavy_n <- dst.heavy_n + src.heavy_n;
  dst.heavy_t <- dst.heavy_t +. src.heavy_t;
  dst.light_t <- dst.light_t +. src.light_t;
  dst.stepped_t <- dst.stepped_t +. src.stepped_t;
  dst.conv_calls <- dst.conv_calls + src.conv_calls;
  dst.conv_t <- dst.conv_t +. src.conv_t;
  Hashtbl.iter
    (fun name s -> List.iter (sample dst name) (Samples.to_list s))
    src.timers;
  Hashtbl.iter (fun name x -> add dst name x) src.sums

(* --- The sim layer, one event at a time ------------------------------- *)

(* Run every event up to [limit], timing each.  With [~max_events:1]
   the engine stops after one event without moving the clock to [limit];
   a call that fires nothing is the one that does move it, exactly as the
   single [Engine.run ~until:limit] it replaces. *)
let step_until r engine limit =
  let s0 = clock () in
  let rec go () =
    let before = Engine.events_executed engine in
    let t0 = clock () in
    Engine.run engine ~until:limit ~max_events:1;
    if Engine.events_executed engine > before then begin
      let t1 = clock () in
      let d = t1 -. t0 in
      Samples.add r.steps d;
      if d > heavy_s then begin
        r.heavy_n <- r.heavy_n + 1;
        r.heavy_t <- r.heavy_t +. d;
        span r "sim" "heavy_step" t0 t1
      end
      else r.light_t <- r.light_t +. d;
      go ()
    end
  in
  go ();
  let s1 = clock () in
  r.stepped_t <- r.stepped_t +. (s1 -. s0);
  span r "sim" "run" s0 s1

(* [Network.run_until_converged], with each convergence poll timed. *)
let until_converged r ?(timeout = Time.s 60) net =
  let engine = N.engine net in
  let deadline = Time.add (N.now net) timeout in
  let rec loop () =
    let t0 = clock () in
    let c = N.converged net in
    let t1 = clock () in
    r.conv_calls <- r.conv_calls + 1;
    r.conv_t <- r.conv_t +. (t1 -. t0);
    span r "network" "converged" t0 t1;
    if c then Some (N.now net)
    else if N.now net >= deadline then None
    else begin
      step_until r engine (Time.min deadline (Time.add (N.now net) (Time.ms 2)));
      loop ()
    end
  in
  loop ()

(* [Network.measure_reconfiguration] over the stepped loop; the fields
   are derived from the same public statistics in the same way, so the
   simulated figures must equal the untraced run's. *)
let measure r ?(timeout = Time.s 60) net ~trigger =
  let g = N.graph net in
  let n = Graph.switch_count g in
  let before = Array.init n (fun s -> AP.stats (N.autopilot net s)) in
  let fabric_before = Fabric.stats (N.fabric net) in
  let t0 = N.now net in
  trigger net;
  match until_converged r ~timeout net with
  | None -> None
  | Some t_end ->
    let first = ref None and last = ref t0 and epochs = ref 0 in
    for s = 0 to n - 1 do
      let st = AP.stats (N.autopilot net s) in
      let d =
        st.AP.reconfigurations_started - before.(s).AP.reconfigurations_started
      in
      if d > 0 then begin
        epochs := max !epochs d;
        match st.AP.last_epoch_started_at with
        | Some at ->
          first :=
            Some (match !first with None -> at | Some c -> Time.min c at)
        | None -> ()
      end;
      match st.AP.last_configured_at with
      | Some at when at > t0 -> last := Time.max !last at
      | _ -> ()
    done;
    let fabric_after = Fabric.stats (N.fabric net) in
    let first = Option.value ~default:t0 !first in
    Some
      { N.detection = Time.sub first t0;
        reconfiguration = Time.sub !last first;
        total = Time.sub t_end t0;
        epochs_used = !epochs;
        control_packets =
          fabric_after.Fabric.packets_sent - fabric_before.Fabric.packets_sent;
        control_bytes =
          fabric_after.Fabric.bytes_sent - fabric_before.Fabric.bytes_sent }

(* [Chaos.run_schedule] over the stepped loop (without a hook: the
   benchmark's campaigns pass none to the oracle). *)
let run_schedule r ~telemetry (cfg : Chaos.config) ~seed ~schedule =
  let net, _ =
    timed r "chaos" "chaos.create" (fun () ->
        let topo = Chaos.build_topo cfg.topo ~seed ~hosts:cfg.hosts in
        N.create ~params:cfg.params ~seed ~telemetry topo)
  in
  N.start net;
  N.schedule_faults net schedule;
  let last =
    List.fold_left
      (fun acc (it : Autonet_topo.Faults.item) -> Time.max acc it.at)
      Time.zero schedule
  in
  step_until r (N.engine net) (Time.add (N.now net) (Time.add last (Time.ms 1)));
  let violations =
    match until_converged r ~timeout:cfg.timeout net with
    | None -> [ Oracle.Not_converged ]
    | Some _ -> (
      match timed r "chaos" "chaos.oracle" (fun () -> Oracle.check net) with
      | vs, _ -> vs
      | exception e -> [ Oracle.Check_raised (Printexc.to_string e) ])
  in
  (net, violations)

(* --- Replays of the core, switch and messages layers ----------------- *)

(* Per network: the committed state of each sampled switch's previous
   replay, so a delta epoch can be replayed as a delta epoch. *)
type committed = (Autonet_net.Uid.t, Delta.committed) Hashtbl.t

let committed () : committed = Hashtbl.create 4

(* The chain [Reconfig.finish_configuration] runs for switch [uid] on
   [report], along the path the simulated switch took.  Returns its wall
   time; each call is also sampled under its core.* name. *)
let replay_chain r ~prev ~pool ~took_delta report uid =
  let c0 = clock () in
  let g, _ =
    timed r "core" "core.to_graph" (fun () -> Topology_report.to_graph report)
  in
  match Graph.switch_of_uid g uid with
  | None -> 0.
  | Some me ->
    let tree, _ =
      timed r "core" "core.spanning_tree" (fun () ->
          Spanning_tree.compute g ~member:me)
    in
    let assignment, _ =
      timed r "core" "core.address_assign" (fun () ->
          Address_assign.make g
            (List.filter_map
               (fun (d : Topology_report.switch_desc) ->
                 Option.map
                   (fun s -> (s, d.proposed_number))
                   (Graph.switch_of_uid g d.uid))
               (Topology_report.switches report)))
    in
    let delta =
      match Hashtbl.find_opt prev uid with
      | Some p when took_delta -> (
        match
          fst
            (timed r "core" "core.delta_classify" (fun () ->
                 Delta.classify ~prev:p ~graph:g ~tree ~assignment ~me))
        with
        | Delta.Structural _ -> None
        | Delta.Tree_preserving ch ->
          let (c, _), _ =
            timed r "core" "core.delta_apply" (fun () ->
                Delta.apply ?pool ~prev:p ~graph:g ~tree ~assignment ~me ch)
          in
          Some c)
      | _ -> None
    in
    let c =
      match delta with
      | Some c -> c
      | None ->
        let updown, _ =
          timed r "core" "core.updown" (fun () -> Updown.orient g tree)
        in
        let routes, _ =
          timed r "core" "core.routes" (fun () -> Routes.compute g tree updown)
        in
        let own, _ =
          timed r "core" "core.tables_build" (fun () ->
              Tables.build g tree updown routes assignment me)
        in
        let all =
          Option.map
            (fun pool ->
              let all, _ =
                timed r "core" "core.tables_build_all" (fun () ->
                    Tables.build_all ~pool g tree updown routes assignment)
              in
              ignore
                (timed r "core" "core.deadlock" (fun () ->
                     Deadlock.check_tables ~pool g all));
              all)
            pool
        in
        Delta.commit_full ~graph:g ~tree ~updown ~routes ~assignment ~own ~all
    in
    Hashtbl.replace prev uid c;
    clock () -. c0

(* Load [spec] into a fresh forwarding table (the write side
   of every reconfiguration) and read it back row by row (the side the
   chaos oracle exercises).  Returns the load's wall time. *)
let replay_table r ~max_ports spec =
  let ft = FT.create ~max_ports in
  let (), d = timed r "switch" "switch.ft_load" (fun () -> FT.load_spec ft spec) in
  sample r "switch.ft_entries" (float_of_int (FT.entry_count ft));
  ignore
    (timed r "switch" "switch.ft_read" (fun () ->
         for in_port = 0 to FT.max_ports ft do
           if FT.has_row ft ~in_port then ignore (FT.rows_of ft ~in_port)
         done));
  d

(* Encode and decode the epoch's Complete message; [reps] calls per
   sample keep the small SRC report above the clock's resolution. *)
let replay_codec r epoch report =
  let reps = 10 in
  let msg = Messages.Complete { epoch; seq = 1; report } in
  let enc = ref "" in
  let t0 = clock () in
  for _ = 1 to reps do
    enc := Messages.encode msg
  done;
  let t1 = clock () in
  for _ = 1 to reps do
    ignore (Messages.decode !enc)
  done;
  let t2 = clock () in
  span r "messages" "complete_codec" t0 t2;
  sample r "messages.complete_encode" ((t1 -. t0) /. float_of_int reps);
  sample r "messages.complete_decode" ((t2 -. t1) /. float_of_int reps);
  sample r "messages.complete_bytes" (float_of_int (String.length !enc))

(* What a replay needs from a converged network, captured so the network
   itself can be dropped before the (serial) replay runs. *)
type epoch = {
  e_report : Topology_report.t;
  e_epoch : Epoch.t;
  e_root : Autonet_net.Uid.t * bool;  (** UID, took the delta path *)
  e_other : (Autonet_net.Uid.t * bool) option;
      (** the median non-root switch of the report, by UID *)
  e_spec : Tables.spec;  (** the sampled switch's loaded table *)
  e_max_ports : int;
  e_configured : int;  (** table loads the epoch's estimate scales by *)
}

(* Capture the converged epoch of [net]'s largest live component. *)
let capture net ~configured =
  let comp =
    List.fold_left
      (fun best c -> if List.length c > List.length best then c else best)
      [] (N.live_components net)
  in
  match comp with
  | [] -> None
  | first :: _ -> (
    let pilot = N.autopilot net first in
    match AP.complete_report pilot with
    | None -> None
    | Some report ->
      let g = N.graph net in
      let with_path uid =
        match Graph.switch_of_uid g uid with
        | Some s -> (uid, AP.delta_spec (N.autopilot net s) <> None)
        | None -> (uid, false)
      in
      let root = (AP.position pilot).Spanning_tree.Position.root in
      let others =
        List.filter_map
          (fun (d : Topology_report.switch_desc) ->
            if Autonet_net.Uid.equal d.uid root then None else Some d.uid)
          (Topology_report.switches report)
      in
      let other =
        match List.sort Autonet_net.Uid.compare others with
        | [] -> None
        | l -> Some (with_path (List.nth l (List.length l / 2)))
      in
      let sampled = match other with Some (u, _) -> u | None -> root in
      Option.map
        (fun s ->
          { e_report = report;
            e_epoch = AP.epoch pilot;
            e_root = with_path root;
            e_other = other;
            e_spec = N.loaded_spec net s;
            e_max_ports = Graph.max_ports g;
            e_configured = configured })
        (Graph.switch_of_uid g sampled))

(* Replay a captured epoch for its root and its median non-root switch,
   then estimate what the epoch cost the simulation: the root's chain
   plus the non-root chain once per other switch that loaded a table,
   and one table load per loading switch. *)
let replay r ~prev ~pool e =
  let chain ~pool (uid, took_delta) =
    replay_chain r ~prev ~pool ~took_delta:(took_delta && Delta.enabled ())
      e.e_report uid
  in
  let root_t = chain ~pool:(Some pool) e.e_root in
  let other_t =
    match e.e_other with Some o -> chain ~pool:None o | None -> 0.
  in
  let configured = float_of_int e.e_configured in
  add r "core.epoch" (root_t +. (Float.max 0. (configured -. 1.) *. other_t));
  add r "switch.epoch_load"
    (configured *. replay_table r ~max_ports:e.e_max_ports e.e_spec);
  replay_codec r e.e_epoch e.e_report

(* --- Output ----------------------------------------------------------- *)

module Json = Autonet_telemetry.Json

(* Chrome trace_event JSON: one track (tid) per layer, wall-clock
   microseconds from the first span. *)
let chrome_trace spans =
  let layers = List.sort_uniq compare (List.map (fun s -> s.layer) spans) in
  let tid l =
    let rec go i = function
      | [] -> 0
      | x :: rest -> if x = l then i else go (i + 1) rest
    in
    go 1 layers
  in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity spans in
  let meta =
    List.map
      (fun l ->
        Json.Obj
          [ ("name", Json.String "thread_name"); ("ph", Json.String "M");
            ("pid", Json.Int 1); ("tid", Json.Int (tid l));
            ("args", Json.Obj [ ("name", Json.String l) ]) ])
      layers
  in
  let events =
    List.map
      (fun s ->
        Json.Obj
          [ ("name", Json.String s.name); ("cat", Json.String s.layer);
            ("ph", Json.String "X"); ("pid", Json.Int 1);
            ("tid", Json.Int (tid s.layer));
            ("ts", Json.Float ((s.t0 -. base) *. 1e6));
            ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
            ("args", Json.Obj [ ("cause", Json.String s.cause) ]) ])
      spans
  in
  Json.Obj
    [ ("traceEvents", Json.List (meta @ events));
      ("displayTimeUnit", Json.String "ms") ]

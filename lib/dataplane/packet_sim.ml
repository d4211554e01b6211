open Autonet_net
open Autonet_core
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module FT = Autonet_switch.Forwarding_table
module PV = Port_vector

type config = {
  cut_through_ns : int;
  link_length_km : float;
  host_rx_ns : int;
}

let default_config =
  { cut_through_ns = 2200; link_length_km = 0.1; host_rx_ns = 2000 }

type envelope = { env_pkt : Packet.t; env_src : Graph.endpoint; env_sent : Time.t }

type delivery = {
  src : Graph.endpoint;
  at : Graph.endpoint;
  sent_at : Time.t;
  delivered_at : Time.t;
  bytes : int;
}

type t = {
  cfg : config;
  engine : Engine.t;
  graph : Graph.t;
  tables : Graph.switch -> FT.t;
  (* busy-until per switch out port, and per host uplink *)
  port_busy : Time.t array array; (* [switch].(port) *)
  host_busy : (Graph.endpoint, Time.t ref) Hashtbl.t;
  host_rx : (Graph.endpoint, Packet.t -> unit) Hashtbl.t;
  control_rx : (Graph.switch, Packet.t -> unit) Hashtbl.t;
  mutable dv : delivery list;
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_discarded : int;
}

let create ?(config = default_config) ~engine g ~tables =
  let n = Graph.switch_count g in
  let host_busy = Hashtbl.create 32 in
  List.iter
    (fun (h : Graph.host_attachment) ->
      Hashtbl.replace host_busy (h.switch, h.switch_port) (ref Time.zero))
    (Graph.hosts g);
  { cfg = config;
    engine;
    graph = g;
    tables;
    port_busy = Array.init n (fun _ -> Array.make (Graph.max_ports g + 1) Time.zero);
    host_busy;
    host_rx = Hashtbl.create 32;
    control_rx = Hashtbl.create 8;
    dv = [];
    n_sent = 0;
    n_delivered = 0;
    n_discarded = 0 }

let set_host_rx t ep f = Hashtbl.replace t.host_rx ep f
let set_control_rx t s f = Hashtbl.replace t.control_rx s f

let deliveries t = List.rev t.dv
let sent_count t = t.n_sent
let delivered_count t = t.n_delivered
let discarded_count t = t.n_discarded

let reset_stats t =
  t.dv <- [];
  t.n_sent <- 0;
  t.n_delivered <- 0;
  t.n_discarded <- 0

let latency d = Time.sub d.delivered_at d.sent_at

let serialization_ns pkt = Packet.wire_size pkt * Command.slot_ns

let propagation_ns t =
  int_of_float
    (Command.slots_per_km *. t.cfg.link_length_km *. float_of_int Command.slot_ns)

let deliver t env ~at =
  t.n_delivered <- t.n_delivered + 1;
  t.dv <-
    { src = env.env_src;
      at;
      sent_at = env.env_sent;
      delivered_at = Engine.now t.engine;
      bytes = Packet.wire_size env.env_pkt }
    :: t.dv;
  let s, p = at in
  if p = 0 then (
    match Hashtbl.find_opt t.control_rx s with
    | Some f -> f env.env_pkt
    | None -> ())
  else
    match Hashtbl.find_opt t.host_rx at with
    | Some f -> f env.env_pkt
    | None -> ()

(* Forward [env], whose head reached switch [s] on [in_port] at the current
   time. *)
let rec arrive_at_switch t env s ~in_port =
  let now = Engine.now t.engine in
  let entry = FT.lookup (t.tables s) ~in_port ~dst:env.env_pkt.Packet.dst in
  let ports = Tables.vector entry in
  if PV.is_empty ports then t.n_discarded <- t.n_discarded + 1
  else begin
    let earliest = Time.add now (Time.ns t.cfg.cut_through_ns) in
    let ser = serialization_ns env.env_pkt in
    let busy = t.port_busy.(s) in
    if Tables.broadcast entry then begin
      (* All ports transmit simultaneously: wait for the whole set, as the
         scheduling engine's reservation does. *)
      let start = ref earliest in
      for p = 0 to PV.max_port do
        if PV.mem p ports then start := Time.max !start busy.(p)
      done;
      for p = 0 to PV.max_port do
        if PV.mem p ports then launch t env s p ~start:!start ~ser
      done
    end
    else begin
      (* Alternative ports: the first free one, preferring low numbers;
         otherwise the one that frees first (the lowest on a tie). *)
      let best = ref (-1) and start = ref earliest in
      for p = 0 to PV.max_port do
        if PV.mem p ports then begin
          let at = Time.max earliest busy.(p) in
          if !best < 0 || at < !start then begin
            best := p;
            start := at
          end
        end
      done;
      launch t env s !best ~start:!start ~ser
    end
  end

(* Transmit [env] out of switch [s] port [p] beginning at [start]. *)
and launch t env s p ~start ~ser =
  t.port_busy.(s).(p) <- Time.add start ser;
  if p = 0 then
    (* Internal port: the control processor has the packet when its end
       arrives. *)
    ignore
      (Engine.schedule_at t.engine ~time:(Time.add start ser) (fun () ->
           deliver t env ~at:(s, 0)))
  else begin
    let prop = propagation_ns t in
    match Graph.host_at t.graph (s, p) with
    | Some _ ->
      ignore
        (Engine.schedule_at t.engine
           ~time:(start + ser + prop + t.cfg.host_rx_ns)
           (fun () -> deliver t env ~at:(s, p)))
    | None -> (
      match Graph.link_at t.graph (s, p) with
      | None -> t.n_discarded <- t.n_discarded + 1
      | Some id -> (
        match Graph.link t.graph id with
        | None -> t.n_discarded <- t.n_discarded + 1
        | Some l ->
          let peer, peer_port = Graph.other_end l s in
          (* Head reaches the next switch after propagation. *)
          ignore
            (Engine.schedule_at t.engine ~time:(start + prop) (fun () ->
                 arrive_at_switch t env peer ~in_port:peer_port))))
  end

let send t ~from pkt =
  match Hashtbl.find_opt t.host_busy from with
  | None ->
    invalid_arg
      (Printf.sprintf "Packet_sim.send: no host at switch %d port %d"
         (fst from) (snd from))
  | Some busy ->
    t.n_sent <- t.n_sent + 1;
    let now = Engine.now t.engine in
    let env = { env_pkt = pkt; env_src = from; env_sent = now } in
    let ser = serialization_ns pkt in
    let start = Time.max now !busy in
    busy := Time.add start ser;
    let s, p = from in
    let prop = propagation_ns t in
    ignore
      (Engine.schedule_at t.engine ~time:(start + prop) (fun () ->
           arrive_at_switch t env s ~in_port:p))

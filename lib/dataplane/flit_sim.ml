open Autonet_net
open Autonet_core
module FT = Autonet_switch.Forwarding_table
module PV = Port_vector
module Sch = Autonet_switch.Scheduler
module XB = Autonet_switch.Crossbar

type config = {
  fifo_capacity : int;
  link_length_km : float;
  broadcast_ignore_stop : bool;
  strict_fifo_scheduler : bool;
}

let default_config =
  { fifo_capacity = 4096;
    link_length_km = 0.1;
    broadcast_ignore_stop = true;
    strict_fifo_scheduler = false }

(* Slots between scheduling passes (480 ns). *)
let router_cycle_slots = 6

let port_pipeline_slots = 18

(* Slots without progress, packets in flight, before a deadlock. *)
let deadlock_window = 8192

type packet_id = int

type slot =
  | Idle
  | Fc of Command.command
  | Begin of packet_id
  | Byte of packet_id
  | End of packet_id

type pkt = {
  pk_id : packet_id;
  pk_src : Graph.endpoint;
  pk_dst : Short_address.t;
  pk_bytes : int;
  pk_injected : int;
  mutable pk_settled : bool; (* first delivery or discard recorded *)
}

type link_unit = {
  rx_fifo : slot Fifo.t;
  mutable tx_allowed : bool;
  mutable requested : bool;
  mutable draining : bool;
  mutable feeding : bool;
  mutable feeding_broadcast : bool;
}

type sw = {
  units : link_unit array; (* index 1..max_ports; slot 0 unused *)
  table : FT.t;
  sched : Sch.t;
  xbar : XB.t;
}

type host_port = {
  hp_ep : Graph.endpoint;
  hp_queue : pkt Queue.t;
  mutable hp_tx : (pkt * int) option; (* packet, bytes already sent *)
  mutable hp_tx_begun : bool;         (* Begin slot transmitted *)
  mutable hp_allowed : bool;
  mutable hp_source : (slot:int -> (Short_address.t * int) option) option;
  mutable hp_reflect : bool;
  (* slow-host model: None = infinitely fast *)
  mutable hp_buf_cap : int option;
  mutable hp_drain : float;
  mutable hp_buf : float;
  mutable hp_rx_dropping : bool;
}

type delivery = {
  packet : packet_id;
  src : Graph.endpoint;
  dst_addr : Short_address.t;
  at : Graph.endpoint;
  injected_slot : int;
  delivered_slot : int;
  bytes : int;
}

type t = {
  cfg : config;
  graph : Graph.t;
  switches : sw array;
  (* per link id: channel a->b and b->a plus payload slot counters *)
  link_ch : (slot Channel.t * slot Channel.t) option array;
  link_busy : (int * int) array;
  (* per host endpoint *)
  hosts : (Graph.endpoint, host_port) Hashtbl.t;
  host_ch_to_switch : (Graph.endpoint, slot Channel.t) Hashtbl.t;
  host_ch_to_host : (Graph.endpoint, slot Channel.t) Hashtbl.t;
  packets : (packet_id, pkt) Hashtbl.t;
  mutable next_packet : packet_id;
  mutable slot_now : int;
  mutable last_progress : int;
  mutable is_deadlocked : bool;
  mutable dv : delivery list; (* newest first *)
  mutable n_discarded : int;
  mutable n_host_dropped : int;
  mutable n_in_flight : int;
}

let config t = t.cfg
let now_slot t = t.slot_now
let deadlocked t = t.is_deadlocked
let deliveries t = List.rev t.dv
let in_flight t = t.n_in_flight
let discarded t = t.n_discarded
let latency_slots d = d.delivered_slot - d.injected_slot

let mk_unit cfg () =
  { rx_fifo =
      Fifo.create ~capacity:cfg.fifo_capacity ~zero:Idle ();
    tx_allowed = true;
    requested = false;
    draining = false;
    feeding = false;
    feeding_broadcast = false }

let create ?(config = default_config) g specs =
  let n = Graph.switch_count g in
  let max_ports = Graph.max_ports g in
  let switches =
    Array.init n (fun s ->
        let table = FT.create ~max_ports in
        (match List.find_opt (fun sp -> Tables.switch sp = s) specs with
        | Some sp -> FT.load_spec table sp
        | None -> FT.load_constant table);
        { units = Array.init (max_ports + 1) (fun _ -> mk_unit config ());
          table;
          sched = Sch.create ();
          xbar = XB.create ~max_ports })
  in
  let delay =
    Channel.delay_of_length_km config.link_length_km + port_pipeline_slots
  in
  let max_link =
    List.fold_left (fun acc (l : Graph.link) -> max acc (l.id + 1)) 0
      (Graph.links g)
  in
  let link_ch = Array.make max_link None in
  List.iter
    (fun (l : Graph.link) ->
      link_ch.(l.id) <-
        Some
          ( Channel.create ~delay_slots:delay ~idle:Idle,
            Channel.create ~delay_slots:delay ~idle:Idle ))
    (Graph.links g);
  let hosts = Hashtbl.create 32 in
  let host_ch_to_switch = Hashtbl.create 32 in
  let host_ch_to_host = Hashtbl.create 32 in
  List.iter
    (fun (h : Graph.host_attachment) ->
      let ep = (h.switch, h.switch_port) in
      Hashtbl.replace hosts ep
        { hp_ep = ep;
          hp_queue = Queue.create ();
          hp_tx = None;
          hp_tx_begun = false;
          hp_allowed = true;
          hp_source = None;
          hp_reflect = false;
          hp_buf_cap = None;
          hp_drain = 1.0;
          hp_buf = 0.0;
          hp_rx_dropping = false };
      Hashtbl.replace host_ch_to_switch ep
        (Channel.create ~delay_slots:delay ~idle:Idle);
      Hashtbl.replace host_ch_to_host ep
        (Channel.create ~delay_slots:delay ~idle:Idle))
    (Graph.hosts g);
  { cfg = config;
    graph = g;
    switches;
    link_ch;
    link_busy = Array.make max_link (0, 0);
    hosts;
    host_ch_to_switch;
    host_ch_to_host;
    packets = Hashtbl.create 256;
    next_packet = 0;
    slot_now = 0;
    last_progress = 0;
    is_deadlocked = false;
    dv = [];
    n_discarded = 0;
    n_host_dropped = 0;
    n_in_flight = 0 }

let host_exn t ep =
  match Hashtbl.find_opt t.hosts ep with
  | Some h -> h
  | None ->
    invalid_arg
      (Printf.sprintf "Flit_sim: no host at switch %d port %d" (fst ep) (snd ep))

let inject t ~from ~dst ~bytes =
  if bytes < 4 then invalid_arg "Flit_sim.inject: packet too small";
  let h = host_exn t from in
  let id = t.next_packet in
  t.next_packet <- id + 1;
  let pk =
    { pk_id = id;
      pk_src = from;
      pk_dst = dst;
      pk_bytes = bytes;
      pk_injected = t.slot_now;
      pk_settled = false }
  in
  Hashtbl.replace t.packets id pk;
  Queue.add pk h.hp_queue;
  t.n_in_flight <- t.n_in_flight + 1;
  id

let set_source t ep f = (host_exn t ep).hp_source <- Some f

let set_reflector t ep v = (host_exn t ep).hp_reflect <- v

let set_host_buffer t ep ~capacity_bytes ~drain_bytes_per_slot =
  if capacity_bytes < 1 || drain_bytes_per_slot <= 0.0 then
    invalid_arg "Flit_sim.set_host_buffer";
  let h = host_exn t ep in
  h.hp_buf_cap <- Some capacity_bytes;
  h.hp_drain <- drain_bytes_per_slot

let host_dropped t = t.n_host_dropped

let progress t = t.last_progress <- t.slot_now

let settle t pk =
  if not pk.pk_settled then begin
    pk.pk_settled <- true;
    t.n_in_flight <- t.n_in_flight - 1
  end

let record_delivery t pk ~at =
  t.dv <-
    { packet = pk.pk_id;
      src = pk.pk_src;
      dst_addr = pk.pk_dst;
      at;
      injected_slot = pk.pk_injected;
      delivered_slot = t.slot_now;
      bytes = pk.pk_bytes }
    :: t.dv;
  settle t pk;
  progress t

let record_discard t pk =
  t.n_discarded <- t.n_discarded + 1;
  settle t pk;
  progress t

let is_fc_slot t = t.slot_now mod Command.flow_control_period = 0

let packet_of t id = Hashtbl.find t.packets id

let ignore_stop_for t id =
  t.cfg.broadcast_ignore_stop && Short_address.is_broadcast (packet_of t id).pk_dst

(* --- Router pass --- *)

let router_pass t s =
  let sw = t.switches.(s) in
  (* Submit requests for packet heads whose address has arrived. *)
  for p = 1 to Array.length sw.units - 1 do
    let u = sw.units.(p) in
    if (not u.feeding) && (not u.requested) && not u.draining then begin
      match Fifo.peek u.rx_fifo with
      | Some (Begin id) when Fifo.occupancy u.rx_fifo >= 3 ->
        let pk = packet_of t id in
        let entry = FT.lookup sw.table ~in_port:p ~dst:pk.pk_dst in
        if PV.is_empty (Tables.vector entry) then begin
          u.draining <- true;
          record_discard t pk
        end
        else begin
          ignore
            (Sch.request sw.sched ~in_port:p ~vector:(Tables.vector entry)
               ~broadcast:(Tables.broadcast entry));
          u.requested <- true
        end
      | _ -> ()
    end
  done;
  (* One scheduling decision per router pass (480 ns, paper 6.4). *)
  let grants =
    (if t.cfg.strict_fifo_scheduler then Sch.round_fcfs else Sch.round)
      ~max_grants:1 sw.sched ~free:(XB.free_outputs sw.xbar)
  in
  List.iter
    (fun (g : Sch.grant) ->
      let u = sw.units.(g.Sch.in_port) in
      u.requested <- false;
      if PV.is_empty g.Sch.out_ports then begin
        (* Discard entry that reached the scheduler anyway. *)
        u.draining <- true;
        match Fifo.peek u.rx_fifo with
        | Some (Begin id) -> record_discard t (packet_of t id)
        | _ -> ()
      end
      else begin
        XB.connect sw.xbar ~in_port:g.Sch.in_port ~out_ports:g.Sch.out_ports;
        u.feeding <- true;
        u.feeding_broadcast <- g.Sch.broadcast
      end)
    grants

(* --- Per-tick switch feed computation --- *)

(* For each in-port feeding the crossbar, decide the slot it forwards this
   tick (None = stalled or empty: outputs emit sync). *)
let compute_feeds t s ~fc_tick =
  let sw = t.switches.(s) in
  let n = Array.length sw.units - 1 in
  let feeds = Array.make (n + 1) None in
  let releases = ref [] in
  for p = 1 to n do
    let u = sw.units.(p) in
    (* Draining (discard) pops one cell per tick regardless of outputs. *)
    if u.draining then begin
      match Fifo.pop u.rx_fifo with
      | Some (End _) ->
        u.draining <- false;
        progress t
      | Some _ -> progress t
      | None -> ()
    end
    else if u.feeding && not fc_tick then begin
      let outs = XB.outputs_of sw.xbar ~in_port:p in
      let can_send =
        match Fifo.peek u.rx_fifo with
        | None -> false
        | Some (Begin id | Byte id | End id) ->
          if ignore_stop_for t id then true
          else
            List.for_all
              (fun o -> o = 0 || sw.units.(o).tx_allowed)
              (PV.to_list outs)
        | Some (Idle | Fc _) -> false
      in
      if can_send then begin
        match Fifo.pop u.rx_fifo with
        | Some sl ->
          feeds.(p) <- Some sl;
          progress t;
          (match sl with
          | End id ->
            (* Packet fully forwarded: free the outputs after the slot is
               transmitted this tick. *)
            releases := (p, outs) :: !releases;
            (* Delivery into the control processor sink. *)
            if PV.mem 0 outs then record_delivery t (packet_of t id) ~at:(s, 0)
          | Begin _ | Byte _ | Idle | Fc _ -> ())
        | None -> ()
      end
    end
  done;
  (feeds, !releases)

let apply_releases t s releases =
  let sw = t.switches.(s) in
  List.iter
    (fun (p, outs) ->
      let u = sw.units.(p) in
      u.feeding <- false;
      u.feeding_broadcast <- false;
      List.iter (fun o -> XB.release_output sw.xbar ~out_port:o) (PV.to_list outs))
    releases

(* The slot transmitted out of switch port p this tick. *)
let switch_out_slot t s feeds ~fc_tick p =
  let sw = t.switches.(s) in
  if fc_tick then
    Fc (if Fifo.above_threshold sw.units.(p).rx_fifo then Command.Stop else Command.Start)
  else
    match XB.source_of sw.xbar ~out_port:p with
    | None -> Idle
    | Some src -> ( match feeds.(src) with Some sl -> sl | None -> Idle)

(* --- Host transmit --- *)

let host_out_slot t h ~fc_tick =
  if fc_tick then Fc Command.Host
  else begin
    (* Start a new packet if idle. *)
    if h.hp_tx = None then begin
      (match Queue.take_opt h.hp_queue with
      | Some pk ->
        h.hp_tx <- Some (pk, 0);
        h.hp_tx_begun <- false
      | None -> (
        match h.hp_source with
        | Some f -> (
          match f ~slot:t.slot_now with
          | Some (dst, bytes) ->
            let id = inject t ~from:h.hp_ep ~dst ~bytes in
            (* inject queued it; take it right back *)
            let pk = Queue.pop h.hp_queue in
            assert (pk.pk_id = id);
            h.hp_tx <- Some (pk, 0);
            h.hp_tx_begun <- false
          | None -> ())
        | None -> ()))
    end;
    match h.hp_tx with
    | None -> Idle
    | Some (pk, sent) ->
      let allowed =
        h.hp_allowed
        || (t.cfg.broadcast_ignore_stop && Short_address.is_broadcast pk.pk_dst)
      in
      if not allowed then Idle
      else if not h.hp_tx_begun then begin
        h.hp_tx_begun <- true;
        progress t;
        Begin pk.pk_id
      end
      else if sent < pk.pk_bytes then begin
        h.hp_tx <- Some (pk, sent + 1);
        progress t;
        Byte pk.pk_id
      end
      else begin
        h.hp_tx <- None;
        h.hp_tx_begun <- false;
        progress t;
        End pk.pk_id
      end
  end

(* --- Receive processing --- *)

let switch_rx t s p slot =
  let u = t.switches.(s).units.(p) in
  match slot with
  | Idle -> ()
  | Fc c -> u.tx_allowed <- not (Command.equal_command c Command.Stop)
  | Begin _ | Byte _ | End _ -> Fifo.push u.rx_fifo slot

let host_rx t ep slot =
  let h = host_exn t ep in
  (* The host consumes buffered bytes at its own pace. *)
  (match h.hp_buf_cap with
  | Some _ -> h.hp_buf <- Float.max 0.0 (h.hp_buf -. h.hp_drain)
  | None -> ());
  match slot with
  | Fc c -> h.hp_allowed <- not (Command.equal_command c Command.Stop)
  | Byte _ -> (
    match h.hp_buf_cap with
    | Some cap ->
      if h.hp_buf >= float_of_int cap then h.hp_rx_dropping <- true
      else h.hp_buf <- h.hp_buf +. 1.0
    | None -> ())
  | End id ->
    let pk = packet_of t id in
    if h.hp_reflect then
      (* The unterminated cable sends the whole packet straight back. *)
      ignore (inject t ~from:ep ~dst:pk.pk_dst ~bytes:pk.pk_bytes)
    else if h.hp_rx_dropping then begin
      (* "A controller will discard received packets when its buffers fill
         up" — the loss is the host's alone; no stop was ever sent. *)
      h.hp_rx_dropping <- false;
      t.n_host_dropped <- t.n_host_dropped + 1;
      settle t pk;
      progress t
    end
    else record_delivery t pk ~at:ep
  | Idle | Begin _ -> ()

let is_payload = function Begin _ | Byte _ | End _ -> true | Idle | Fc _ -> false

(* --- Main loop --- *)

let tick t =
  let fc_tick = is_fc_slot t in
  (* Router passes. *)
  if t.slot_now mod router_cycle_slots = 0 then
    for s = 0 to Array.length t.switches - 1 do
      router_pass t s
    done;
  (* Compute all transmissions. *)
  let n = Array.length t.switches in
  let feeds = Array.make n [||] in
  let releases = Array.make n [] in
  for s = 0 to n - 1 do
    let f, r = compute_feeds t s ~fc_tick in
    feeds.(s) <- f;
    releases.(s) <- r
  done;
  (* Push slots into channels and process what emerges. *)
  List.iter
    (fun (l : Graph.link) ->
      match t.link_ch.(l.id) with
      | None -> ()
      | Some (ch_ab, ch_ba) ->
        let sa, pa = l.a and sb, pb = l.b in
        let out_a = switch_out_slot t sa feeds.(sa) ~fc_tick pa in
        let out_b = switch_out_slot t sb feeds.(sb) ~fc_tick pb in
        let ba, bb = t.link_busy.(l.id) in
        t.link_busy.(l.id) <-
          ((if is_payload out_a then ba + 1 else ba),
           if is_payload out_b then bb + 1 else bb);
        let arr_b = Channel.tick ch_ab ~input:out_a in
        let arr_a = Channel.tick ch_ba ~input:out_b in
        switch_rx t sb pb arr_b;
        switch_rx t sa pa arr_a)
    (Graph.links t.graph);
  Hashtbl.iter
    (fun ep h ->
      let s, p = ep in
      let to_host = switch_out_slot t s feeds.(s) ~fc_tick p in
      let to_switch = host_out_slot t h ~fc_tick in
      let arr_host = Channel.tick (Hashtbl.find t.host_ch_to_host ep) ~input:to_host in
      let arr_switch = Channel.tick (Hashtbl.find t.host_ch_to_switch ep) ~input:to_switch in
      host_rx t ep arr_host;
      switch_rx t s p arr_switch)
    t.hosts;
  (* Release crossbar paths whose packets finished this tick. *)
  for s = 0 to n - 1 do
    apply_releases t s releases.(s)
  done;
  t.slot_now <- t.slot_now + 1;
  (* Deadlock watchdog: traffic exists but nothing moved for a window. *)
  if t.n_in_flight > 0 && t.slot_now - t.last_progress > deadlock_window then
    t.is_deadlocked <- true

let run t ~slots =
  let stop = t.slot_now + slots in
  while t.slot_now < stop && not t.is_deadlocked do
    tick t
  done

let fifo_high_water t s ~port = Fifo.max_occupancy t.switches.(s).units.(port).rx_fifo
let fifo_overflowed t s ~port = Fifo.overflowed t.switches.(s).units.(port).rx_fifo

let channel_busy_slots t link_id = t.link_busy.(link_id)

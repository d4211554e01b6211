open Autonet_net
open Autonet_core
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time

type flow_mode = Flow_normal | Flow_idhy

type status = Clean | Errors | Idhy | Host

type station = {
  mutable sw_rx : (port:int -> Packet.t -> unit) option;
  rx_queue : (int * Packet.t) Queue.t;
  mutable busy : bool;
  mutable sw_powered : bool;
  flow : flow_mode array; (* per port *)
}

type host_station = {
  mutable h_rx : (Packet.t -> unit) option;
  mutable h_powered : bool;
}

(* What the cable at a switch port reaches, fixed when the fabric is
   created.  A loop link is a [To_switch] whose [peer] is the port's own
   switch. *)
type cable =
  | Uncabled
  | To_host of host_station
  | To_switch of { id : Graph.link_id; peer : Graph.switch; peer_port : int }

type stats = {
  packets_sent : int;
  bytes_sent : int;
  packets_dropped : int;
  reflections : int;
}

type t = {
  engine : Engine.t;
  graph : Graph.t;
  params : Params.t;
  stations : station array;
  cables : cable array array; (* per switch, per port 0..max_ports *)
  failed : Bytes.t; (* per link id 0..max_link_id: '\001' when failed *)
  mutable status_version : int;
      (* bumped by every call that can change an answer of [sample_port] *)
  mutable st_sent : int;
  mutable st_bytes : int;
  mutable st_dropped : int;
  mutable st_reflections : int;
}

let create ~engine ~graph ~params =
  let n = Graph.switch_count graph in
  let stations =
    Array.init n (fun _ ->
        { sw_rx = None;
          rx_queue = Queue.create ();
          busy = false;
          sw_powered = true;
          flow = Array.make (Graph.max_ports graph + 1) Flow_normal })
  in
  let cables =
    Array.init n (fun _ -> Array.make (Graph.max_ports graph + 1) Uncabled)
  in
  List.iter
    (fun (h : Graph.host_attachment) ->
      cables.(h.switch).(h.switch_port) <-
        To_host { h_rx = None; h_powered = true })
    (Graph.hosts graph);
  Graph.iter_links graph (fun l ->
      let sa, pa = l.a and sb, pb = l.b in
      cables.(sa).(pa) <- To_switch { id = l.id; peer = sb; peer_port = pb };
      cables.(sb).(pb) <- To_switch { id = l.id; peer = sa; peer_port = pa });
  { engine; graph; params; stations; cables;
    failed = Bytes.make (Graph.max_link_id graph + 1) '\000';
    status_version = 0;
    st_sent = 0; st_bytes = 0; st_dropped = 0; st_reflections = 0 }

let engine t = t.engine
let graph t = t.graph
let params t = t.params
let status_version t = t.status_version
let status_moved t = t.status_version <- t.status_version + 1

let attach_switch t s ~rx = t.stations.(s).sw_rx <- Some rx

(* Ports outside 0..max_ports lead nowhere, as [Graph.link_at] and
   [Graph.host_at] answer for them. *)
let cable t s port =
  let row = t.cables.(s) in
  if port >= 0 && port < Array.length row then row.(port) else Uncabled

let host_station t (s, port) =
  match
    if s >= 0 && s < Array.length t.cables then cable t s port else Uncabled
  with
  | To_host h -> h
  | Uncabled | To_switch _ ->
    invalid_arg (Printf.sprintf "Fabric: no host at switch %d port %d" s port)

let attach_host_port t ep ~rx = (host_station t ep).h_rx <- Some rx

let set_failed t what id v =
  if id < 0 || id >= Bytes.length t.failed then
    invalid_arg (Printf.sprintf "Fabric.%s: no link %d" what id);
  Bytes.set t.failed id v;
  status_moved t

let fail_link t id = set_failed t "fail_link" id '\001'
let repair_link t id = set_failed t "repair_link" id '\000'

let link_failed t id =
  id >= 0 && id < Bytes.length t.failed && Bytes.get t.failed id <> '\000'

let power_off_switch t s =
  let st = t.stations.(s) in
  st.sw_powered <- false;
  Queue.clear st.rx_queue;
  st.busy <- false;
  status_moved t

let power_on_switch t s =
  t.stations.(s).sw_powered <- true;
  status_moved t

let switch_powered t s = t.stations.(s).sw_powered

let power_off_host t ep =
  (host_station t ep).h_powered <- false;
  status_moved t

let power_on_host t ep =
  (host_station t ep).h_powered <- true;
  status_moved t

let set_port_flow t s ~port mode =
  let flow = t.stations.(s).flow in
  if flow.(port) <> mode then begin
    flow.(port) <- mode;
    status_moved t
  end

(* --- Delivery --- *)

let transmission_delay packet = Packet.wire_size packet * Command.slot_ns

let propagation_delay t =
  Time.ns
    (int_of_float
       (Command.slots_per_km *. t.params.Params.link_length_km
       *. float_of_int Command.slot_ns))

(* Host controllers are fast pipelined hardware; charge a small fixed
   receive cost rather than a 68000-style queue. *)
let host_processing = Time.us 30

(* Run the switch's processing queue: one packet per [processing_delay]. *)
let rec process_next t s =
  let st = t.stations.(s) in
  if Queue.is_empty st.rx_queue || not st.sw_powered then st.busy <- false
  else begin
    st.busy <- true;
    let port, packet = Queue.pop st.rx_queue in
    ignore
      (Engine.schedule t.engine ~delay:t.params.Params.processing_delay
         (fun () ->
           if st.sw_powered then begin
             (match st.sw_rx with
             | Some rx -> rx ~port packet
             | None -> ());
             process_next t s
           end
           else st.busy <- false))
  end

let deliver_to_switch t s ~port packet =
  let st = t.stations.(s) in
  if st.sw_powered then begin
    Queue.add (port, packet) st.rx_queue;
    if not st.busy then process_next t s
  end
  else t.st_dropped <- t.st_dropped + 1

let deliver_to_host t h packet =
  if h.h_powered then
    match h.h_rx with
    | Some rx ->
      ignore (Engine.schedule t.engine ~delay:host_processing (fun () ->
          if h.h_powered then rx packet))
    | None -> t.st_dropped <- t.st_dropped + 1
  else t.st_dropped <- t.st_dropped + 1

(* Deliver the packet back to the sender's own port, modelling the coax
   behaviour at unpowered or absent terminations. *)
let reflect t ~from ~port ~delay packet =
  t.st_reflections <- t.st_reflections + 1;
  ignore
    (Engine.schedule t.engine
       ~delay:(Time.add delay (propagation_delay t))
       (fun () -> deliver_to_switch t from ~port packet))

(* Transmit from a switch port into whatever the cable reaches. *)
let switch_send t ~from ~port packet =
  let st = t.stations.(from) in
  if not st.sw_powered then ()
  else begin
    t.st_sent <- t.st_sent + 1;
    t.st_bytes <- t.st_bytes + Packet.wire_size packet;
    let delay = Time.add (transmission_delay packet) (propagation_delay t) in
    match cable t from port with
    | To_host h ->
      if h.h_powered then
        ignore
          (Engine.schedule t.engine ~delay (fun () -> deliver_to_host t h packet))
      else reflect t ~from ~port ~delay packet
    | Uncabled -> t.st_dropped <- t.st_dropped + 1 (* noise, no echo *)
    | To_switch { id; _ } when link_failed t id -> t.st_dropped <- t.st_dropped + 1
    | To_switch { id; peer; peer_port } ->
      if switch_powered t peer then
        ignore
          (Engine.schedule t.engine ~delay (fun () ->
               if not (link_failed t id) then
                 deliver_to_switch t peer ~port:peer_port packet))
      else reflect t ~from ~port ~delay packet
  end

let host_send t ep packet =
  let h = host_station t ep in
  if h.h_powered then begin
    t.st_sent <- t.st_sent + 1;
    t.st_bytes <- t.st_bytes + Packet.wire_size packet;
    let s, port = ep in
    let delay = Time.add (transmission_delay packet) (propagation_delay t) in
    if switch_powered t s then
      ignore
        (Engine.schedule t.engine ~delay (fun () ->
             deliver_to_switch t s ~port packet))
    else begin
      (* Reflection back to the host. *)
      t.st_reflections <- t.st_reflections + 1;
      ignore
        (Engine.schedule t.engine ~delay:(Time.add delay (propagation_delay t))
           (fun () -> deliver_to_host t h packet))
    end
  end

(* --- Status synthesis --- *)

let sample_port t s ~port =
  match cable t s port with
  | To_host h ->
    (* Host off: the cable reflects our own flow control; the port looks
       like a quiet switch link. *)
    if h.h_powered then Host else Clean
  | Uncabled -> Errors (* noise *)
  | To_switch { id; _ } when link_failed t id -> Errors
  | To_switch { peer; peer_port; _ } ->
    if not (switch_powered t peer) then Clean (* reflecting *)
    else if peer = s then
      (* Loop link: we receive our own start directives: healthy,
         not host; the connectivity monitor will classify the loop. *)
      Clean
    else if t.stations.(peer).flow.(peer_port) = Flow_idhy then Idhy
    else Clean

let stats t =
  { packets_sent = t.st_sent;
    bytes_sent = t.st_bytes;
    packets_dropped = t.st_dropped;
    reflections = t.st_reflections }

let reset_stats t =
  t.st_sent <- 0;
  t.st_bytes <- 0;
  t.st_dropped <- 0;
  t.st_reflections <- 0

open Autonet_net
open Autonet_core
module Fabric = Autonet_autopilot.Fabric
module Messages = Autonet_autopilot.Messages
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time

type timeouts = {
  probe_interval : Time.t;
  urgent_probe_interval : Time.t;
  fail_after : Time.t;
  give_up_after : Time.t;
}

let default_timeouts =
  { probe_interval = Time.s 1;
    urgent_probe_interval = Time.ms 250;
    fail_after = Time.s 3;
    give_up_after = Time.s 10 }

type stats = {
  failovers : int;
  queries_sent : int;
  last_outage : Time.t option;
  total_outage : Time.t;
}

type t = {
  fabric : Fabric.t;
  tmo : timeouts;
  uid : Uid.t;
  primary : Graph.endpoint;
  alternate : Graph.endpoint option;
  mutable active_ep : Graph.endpoint;
  mutable addr : Short_address.t option;
  mutable last_response : Time.t;
  mutable switched_at : Time.t;
  mutable outage_start : Time.t option;
  mutable token : int;
  mutable running : bool;
  mutable timer : Engine.handle option;
  mutable on_address : (Short_address.t option -> unit) option;
  mutable st_failovers : int;
  mutable st_queries : int;
  mutable st_last_outage : Time.t option;
  mutable st_total_outage : Time.t;
}

let engine t = Fabric.engine t.fabric
let now t = Engine.now (engine t)

let active t = t.active_ep
let is_active t ep = t.active_ep = ep
let address t = t.addr
let set_on_address t f = t.on_address <- Some f

let stats t =
  { failovers = t.st_failovers;
    queries_sent = t.st_queries;
    last_outage = t.st_last_outage;
    total_outage = t.st_total_outage }

let set_address t a =
  if t.addr <> a then begin
    (match (t.addr, a) with
    | Some _, None | None, None -> ()
    | None, Some _ -> begin
      (* Outage over. *)
      match t.outage_start with
      | Some since ->
        let d = Time.sub (now t) since in
        t.st_last_outage <- Some d;
        t.st_total_outage <- Time.add t.st_total_outage d;
        t.outage_start <- None
      | None -> ()
    end
    | Some _, Some _ -> ());
    (match (t.addr, a) with
    | Some _, None when t.outage_start = None -> t.outage_start <- Some (now t)
    | _ -> ());
    t.addr <- a;
    match t.on_address with Some f -> f a | None -> ()
  end

let send_query t =
  t.token <- t.token + 1;
  t.st_queries <- t.st_queries + 1;
  Fabric.host_send t.fabric t.active_ep
    (Messages.to_packet (Messages.Host_query { token = t.token; host_uid = t.uid }))

let other_port t ep = if ep = t.primary then t.alternate else Some t.primary

let switch_link t =
  match other_port t t.active_ep with
  | None -> () (* single-homed: nothing to do but keep trying *)
  | Some next ->
    t.st_failovers <- t.st_failovers + 1;
    t.active_ep <- next;
    t.switched_at <- now t;
    (* "After switching links, the driver forgets its short address." *)
    set_address t None;
    send_query t

let on_tick t =
  if t.running then begin
    let silent_for = Time.sub (now t) t.last_response in
    (match t.addr with
    | Some _ ->
      if silent_for > t.tmo.fail_after then switch_link t else send_query t
    | None ->
      (* Chasing a switch on the current port. *)
      if Time.sub (now t) t.switched_at > t.tmo.give_up_after then switch_link t
      else send_query t)
  end

let rec schedule_tick t =
  if t.running then begin
    let interval =
      match t.addr with
      | Some _ -> t.tmo.probe_interval
      | None -> t.tmo.urgent_probe_interval
    in
    t.timer <-
      Some
        (Engine.schedule (engine t) ~delay:interval (fun () ->
             on_tick t;
             schedule_tick t))
  end

let on_control_packet t ep packet =
  if ep = t.active_ep then begin
    match Messages.of_packet packet with
    | exception (Wire.Malformed _ | Wire.Truncated) -> ()
    | Messages.Host_addr { token; address } ->
      if token = t.token then begin
        t.last_response <- now t;
        set_address t (Some address)
      end
    | _ -> ()
  end

let create ~fabric ?(timeouts = default_timeouts) ~host_uid ~primary ?alternate
    () =
  let t =
    { fabric;
      tmo = timeouts;
      uid = host_uid;
      primary;
      alternate;
      active_ep = primary;
      addr = None;
      last_response = Time.zero;
      switched_at = Time.zero;
      outage_start = None;
      token = 0;
      running = false;
      timer = None;
      on_address = None;
      st_failovers = 0;
      st_queries = 0;
      st_last_outage = None;
      st_total_outage = Time.zero }
  in
  Fabric.attach_host_port fabric primary ~rx:(fun p -> on_control_packet t primary p);
  (match alternate with
  | Some ep ->
    Fabric.attach_host_port fabric ep ~rx:(fun p -> on_control_packet t ep p)
  | None -> ());
  t

let start t =
  if not t.running then begin
    t.running <- true;
    t.outage_start <- Some (now t);
    t.switched_at <- now t;
    send_query t;
    schedule_tick t
  end

let stop t =
  t.running <- false;
  (match t.timer with Some h -> Engine.cancel h | None -> ());
  t.timer <- None

let force_switch t = switch_link t

open Autonet_net
open Autonet_core
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time

type transition = {
  port : int;
  from_state : Port_state.t;
  into_state : Port_state.t;
  neighbor : (Uid.t * int) option;
}

type port_info = {
  mutable state : Port_state.t;
  mutable state_since : Time.t;
  status_skeptic : Skeptic.t;
  conn_skeptic : Skeptic.t;
  (* status sampler *)
  mutable clean_since : Time.t option;
  (* connectivity monitor *)
  mutable neighbor : (Uid.t * int) option;
  mutable probe_token : int;
  mutable probe_outstanding : bool;
  mutable misses : int;
  mutable good_since : Time.t option;
      (* continuous proper replies while in Switch_who *)
  mutable candidate : (Uid.t * int) option;
  mutable promoted_at : Time.t;
}

type t = {
  fabric : Fabric.t;
  switch : Graph.switch;
  uid : Uid.t;
  send : port:int -> Messages.t -> unit;
  sw_version : unit -> int;
  on_transition : transition -> unit;
  log : Event.t -> unit;
  ports : port_info array; (* index 1..max_ports *)
  active : bool array;
      (* per port: its last sample left a state that can act on an
         unchanged status *)
  mutable swept : int;
      (* the fabric's status version at the last full sweep; -1 forces
         the next tick to sweep every port *)
  mutable next_token : int;
  mutable timers : Engine.handle list;
      (* the sampler's and the prober's; [] while stopped *)
}

let params t = Fabric.params t.fabric
let now t = Engine.now (Fabric.engine t.fabric)

let create ~fabric ~switch ~uid ~send ~sw_version ~on_transition ~log () =
  let p = Fabric.params fabric in
  let mk () =
    { state = Port_state.Dead;
      state_since = Time.zero;
      status_skeptic = Skeptic.create p.Params.status_skeptic;
      conn_skeptic = Skeptic.create p.Params.conn_skeptic;
      clean_since = None;
      neighbor = None;
      probe_token = 0;
      probe_outstanding = false;
      misses = 0;
      good_since = None;
      candidate = None;
      promoted_at = Time.zero }
  in
  let n = Graph.max_ports (Fabric.graph fabric) in
  { fabric;
    switch;
    uid;
    send;
    sw_version;
    on_transition;
    log;
    ports = Array.init (n + 1) (fun _ -> mk ());
    active = Array.make (n + 1) true;
    swept = -1;
    next_token = 1;
    timers = [] }

let state t ~port = t.ports.(port).state

(* A relapse lengthens the skeptic's hold-down: log the new hold so the
   merged log shows the backoff climbing on a flapping link. *)
let note_backoff t port kind sk =
  Skeptic.note_relapse sk ~now:(now t);
  t.log
    (Event.Skeptic_backoff
       { port; skeptic = kind; hold = Skeptic.required_hold sk })

let neighbor t ~port =
  match t.ports.(port).state with
  | Port_state.Switch_good -> t.ports.(port).neighbor
  | _ -> None

let skeptic_holds t =
  List.init
    (Array.length t.ports - 1)
    (fun i ->
      let info = t.ports.(i + 1) in
      ( i + 1,
        Skeptic.required_hold info.status_skeptic,
        Skeptic.required_hold info.conn_skeptic ))

let good_ports t =
  let acc = ref [] in
  for p = Array.length t.ports - 1 downto 1 do
    match (t.ports.(p).state, t.ports.(p).neighbor) with
    | Port_state.Switch_good, Some (u, rp) -> acc := (p, u, rp) :: !acc
    | _, _ -> ()
  done;
  !acc

let transition t port into =
  let info = t.ports.(port) in
  let from_state = info.state in
  if not (Port_state.equal from_state into) then begin
    assert (Port_state.legal_transition from_state into);
    info.state <- into;
    info.state_since <- now t;
    t.log (Event.Port_transition { port; from_state; into_state = into });
    (* Flow control follows the state: dead ports send idhy. *)
    Fabric.set_port_flow t.fabric t.switch ~port
      (if Port_state.equal into Port_state.Dead then Fabric.Flow_idhy
       else Fabric.Flow_normal);
    t.on_transition
      { port; from_state; into_state = into; neighbor = info.neighbor }
  end

let to_dead t port ~relapse =
  let info = t.ports.(port) in
  (* Credit the healthy interval first, then penalize the relapse. *)
  if relapse then note_backoff t port Event.Status info.status_skeptic
  else
    Skeptic.note_healthy_since info.status_skeptic ~promoted_at:info.promoted_at
      ~now:(now t);
  info.clean_since <- None;
  info.neighbor <- None;
  info.candidate <- None;
  info.good_since <- None;
  info.probe_outstanding <- false;
  info.misses <- 0;
  transition t port Port_state.Dead

let force_dead t ~port = to_dead t port ~relapse:true

(* --- Status sampler --- *)

(* Whether a sample that reads [status] again can act on the port: every
   (state, status) pair does but these four, where the sampler waits for
   the status to change. *)
let can_act info status =
  match (info.state, status) with
  | Port_state.Dead, Fabric.Errors -> Option.is_some info.clean_since
  | Port_state.Checking, Fabric.Idhy
  | Port_state.Host, (Fabric.Clean | Fabric.Host)
  | ( (Port_state.Switch_who | Port_state.Switch_loop | Port_state.Switch_good),
      Fabric.Clean ) ->
    false
  | _, _ -> true

let sample_one t port =
  let info = t.ports.(port) in
  let status = Fabric.sample_port t.fabric t.switch ~port in
  (match info.state with
  | Port_state.Dead -> (
    match status with
    | Fabric.Errors -> info.clean_since <- None
    | Fabric.Clean | Fabric.Idhy | Fabric.Host -> (
      match info.clean_since with
      | None -> info.clean_since <- Some (now t)
      | Some since ->
        if Time.sub (now t) since >= Skeptic.required_hold info.status_skeptic
        then begin
          info.promoted_at <- now t;
          transition t port Port_state.Checking
        end))
  | Port_state.Checking -> (
    match status with
    | Fabric.Errors -> to_dead t port ~relapse:true
    | Fabric.Idhy -> () (* peer still distrusts the link: wait *)
    | Fabric.Host -> transition t port Port_state.Host
    | Fabric.Clean -> transition t port Port_state.Switch_who)
  | Port_state.Host -> (
    match status with
    | Fabric.Errors | Fabric.Idhy -> to_dead t port ~relapse:true
    | Fabric.Clean | Fabric.Host -> ())
  | Port_state.Switch_who | Port_state.Switch_loop | Port_state.Switch_good -> (
    match status with
    | Fabric.Errors | Fabric.Idhy -> to_dead t port ~relapse:true
    | Fabric.Host ->
      (* What is cabled here changed nature (e.g. a host was powered on
         behind a previously reflecting cable): recycle through s.dead —
         Figure 8's only road to s.host — without a skeptic penalty. *)
      to_dead t port ~relapse:false
    | Fabric.Clean -> ()));
  t.active.(port) <- can_act info status

(* Every port when any status may have moved since the last full sweep
   (the version is read before sampling, so a sample's own flow change
   counts too); otherwise only the ports that can act on the status they
   read last.  Outside the sampler, the connectivity monitor moves ports
   only among the [Switch_*] states, which [can_act] treats alike; a
   demotion into s.dead changes the port's flow, and one of a port
   already there leaves a waiting port waiting; [reset] forces a full
   sweep.  So the skipped samples are exactly the ones that would do
   nothing. *)
let sample_all t =
  let version = Fabric.status_version t.fabric in
  let full = version <> t.swept in
  t.swept <- version;
  for port = 1 to Array.length t.ports - 1 do
    if full || t.active.(port) then sample_one t port
  done

(* --- Connectivity monitor --- *)

let send_probe t port =
  let info = t.ports.(port) in
  (* An unanswered previous probe is a miss. *)
  if info.probe_outstanding then begin
    info.misses <- info.misses + 1;
    info.good_since <- None;
    if
      Port_state.equal info.state Port_state.Switch_good
      && info.misses >= (params t).Params.conn_miss_limit
    then begin
      note_backoff t port Event.Conn info.conn_skeptic;
      info.neighbor <- None;
      info.candidate <- None;
      transition t port Port_state.Switch_who
    end
  end;
  t.next_token <- t.next_token + 1;
  info.probe_token <- t.next_token;
  info.probe_outstanding <- true;
  t.send ~port
    (Messages.Conn_test
       { token = info.probe_token;
         src_uid = t.uid;
         src_port = port;
         sw_version = t.sw_version () })

let probe_all t =
  let p = params t in
  for port = 1 to Array.length t.ports - 1 do
    let info = t.ports.(port) in
    match info.state with
    | Port_state.Switch_who -> send_probe t port
    | Port_state.Switch_loop | Port_state.Switch_good ->
      (* Probe verified ports at the slower cadence: skip fast ticks that
         fall between slow periods. *)
      let fast = p.Params.conn_probe_fast_interval in
      let slow = p.Params.conn_probe_interval in
      let ticks = if fast > 0 then Stdlib.max 1 (slow / fast) else 1 in
      let tick_index = if fast > 0 then now t / fast else 0 in
      if tick_index mod ticks = 0 then send_probe t port
    | Port_state.Dead | Port_state.Checking | Port_state.Host -> ()
  done

let handle_conn_reply t ~port (reply : Messages.t) =
  match reply with
  | Messages.Conn_reply
      { token; orig_uid; orig_port; responder_uid; responder_port; _ } ->
    let info = t.ports.(port) in
    if
      token = info.probe_token && Uid.equal orig_uid t.uid && orig_port = port
    then begin
      info.probe_outstanding <- false;
      info.misses <- 0;
      if Uid.equal responder_uid t.uid then begin
        (* Loop or reflection.  Figure 8 has no good -> loop edge: a
           verified port must first fall back to s.switch.who (triggering
           the reconfiguration that removes the link). *)
        info.neighbor <- None;
        info.candidate <- None;
        info.good_since <- None;
        match info.state with
        | Port_state.Switch_who -> transition t port Port_state.Switch_loop
        | Port_state.Switch_good ->
          note_backoff t port Event.Conn info.conn_skeptic;
          transition t port Port_state.Switch_who
        | _ -> ()
      end
      else begin
        let id = (responder_uid, responder_port) in
        match info.state with
        | Port_state.Switch_who ->
          (* The connectivity skeptic requires a continuous run of good
             replies from the same responder. *)
          if info.candidate <> Some id then begin
            info.candidate <- Some id;
            info.good_since <- Some (now t)
          end;
          (match info.good_since with
          | Some since
            when Time.sub (now t) since
                 >= Skeptic.required_hold info.conn_skeptic ->
            info.neighbor <- Some id;
            info.promoted_at <- now t;
            transition t port Port_state.Switch_good
          | Some _ -> ()
          | None -> info.good_since <- Some (now t))
        | Port_state.Switch_good ->
          if info.neighbor <> Some id then begin
            (* The switch at the far end changed identity. *)
            note_backoff t port Event.Conn info.conn_skeptic;
            info.neighbor <- None;
            info.candidate <- Some id;
            info.good_since <- Some (now t);
            transition t port Port_state.Switch_who
          end
        | Port_state.Switch_loop ->
          (* A real switch appeared where a loop was: re-evaluate. *)
          info.candidate <- Some id;
          info.good_since <- Some (now t);
          transition t port Port_state.Switch_who
        | _ -> ()
      end
    end;
    true
  | _ -> false

let handle_message t ~port msg =
  match msg with
  | Messages.Conn_test { token; src_uid; src_port; _ } ->
    (* Reply whatever our state: identification must work while the other
       side is still checking us.  (Dead ports do not talk at all.) *)
    if not (Port_state.equal t.ports.(port).state Port_state.Dead) then
      t.send ~port
        (Messages.Conn_reply
           { token;
             orig_uid = src_uid;
             orig_port = src_port;
             responder_uid = t.uid;
             responder_port = port;
             sw_version = t.sw_version () });
    true
  | Messages.Conn_reply _ -> handle_conn_reply t ~port msg
  | _ -> false

let reset t =
  t.swept <- -1;
  for port = 1 to Array.length t.ports - 1 do
    let info = t.ports.(port) in
    info.state <- Port_state.Dead;
    info.state_since <- now t;
    Skeptic.reset info.status_skeptic;
    Skeptic.reset info.conn_skeptic;
    info.clean_since <- None;
    info.neighbor <- None;
    info.candidate <- None;
    info.good_since <- None;
    info.probe_outstanding <- false;
    info.misses <- 0;
    Fabric.set_port_flow t.fabric t.switch ~port Fabric.Flow_idhy
  done

let start t =
  if t.timers = [] then begin
    (* Boot: every port dead, idhy outbound, nothing remembered. *)
    reset t;
    let p = params t in
    let every interval task =
      Engine.every (Fabric.engine t.fabric)
        ~period:(Params.round_to_timer p interval) (fun () -> task t)
    in
    (* The sampler first: same-instant ticks keep their order. *)
    let sampler = every p.Params.status_sample_interval sample_all in
    let prober = every p.Params.conn_probe_fast_interval probe_all in
    t.timers <- [ sampler; prober ]
  end

let stop t =
  List.iter Engine.cancel t.timers;
  t.timers <- []

open Autonet_net
open Autonet_core
module Position = Spanning_tree.Position

type callbacks = {
  cb_send : port:int -> Messages.t -> unit;
  cb_load_constant : unit -> unit;
  cb_load_tables : Tables.spec -> parent:int option -> children:int list -> unit;
  cb_configured : unit -> unit;
  cb_log : Event.t -> unit;
  cb_mark : Autonet_telemetry.Timeline.kind -> unit;
  cb_span : name:string -> dur_s:float -> unit;
  cb_clock : unit -> float;
      (* the clock the compute spans are measured on: wall clock for the
         benches, an injected deterministic tick for smoke runs *)
}

(* What we last told the parent about our subtree. *)
type report_state =
  | Nothing_sent
  | Report_pending of { seq : int; report : Topology_report.t }
  | Report_acked of { report : Topology_report.t }
  | Retract_pending of { seq : int }

type peer = {
  p_port : int;            (* our port to this neighbour *)
  p_uid : Uid.t;
  p_remote_port : int;     (* the neighbour's port on this link *)
  mutable p_acked : bool;  (* acked our current position announcement *)
  mutable p_last_pos_seq : int; (* newest Tree_position seq seen from peer *)
  mutable p_child_claim : bool;
  mutable p_child_report : Topology_report.t option;
  mutable p_out_complete : (int * Messages.t) option;
  mutable p_complete_acked : bool;
}

type t = {
  switch : Graph.switch;
  uid : Uid.t;
  max_ports : int;
  callbacks : callbacks;
  mutable epoch : Epoch.t;
  mutable position : Position.t;
  mutable pos_seq : int;
  mutable seq_counter : int;
  mutable peers : peer list;
  mutable host_ports : int list;
  mutable stable : bool;
  mutable configured : bool;
  mutable report_state : report_state;
  mutable my_number : int option;
  mutable last_assignment : Address_assign.t option;
  mutable complete : Topology_report.t option;
  mutable complete_done : bool; (* tables computed and handed off this epoch *)
  mutable committed : Delta.committed option;
      (* last committed epoch's reusable state; survives start_epoch so the
         next epoch can try the delta fast path, dies with [stop] *)
  mutable delta_spec : Tables.spec option;
      (* our table when this epoch took the delta path (None: full path) *)
  mutable root_verdict : Deadlock.result option;
      (* the root's deadlock verdict for this epoch, whichever path ran *)
}

let create ~fabric ~switch ~uid ~callbacks () =
  { switch;
    uid;
    max_ports = Graph.max_ports (Fabric.graph fabric);
    callbacks;
    epoch = Epoch.zero;
    position = Position.root_position uid;
    pos_seq = 0;
    seq_counter = 0;
    peers = [];
    host_ports = [];
    stable = false;
    configured = false;
    report_state = Nothing_sent;
    my_number = None;
    last_assignment = None;
    complete = None;
    complete_done = false;
    committed = None;
    delta_spec = None;
    root_verdict = None }

let epoch t = t.epoch
let position t = t.position
let stable t = t.stable
let configured t = t.configured
let proposed_number t = Option.value ~default:1 t.my_number
let switch_number t = t.my_number
let assignment t = t.last_assignment
let complete_report t = t.complete
let delta_spec t = t.delta_spec
let root_verdict t = t.root_verdict

let fresh_seq t =
  t.seq_counter <- t.seq_counter + 1;
  t.seq_counter

let peer_at t port = List.find_opt (fun p -> p.p_port = port) t.peers

let log t fmt =
  Format.kasprintf (fun m -> t.callbacks.cb_log (Event.Generic m)) fmt

let event t e = t.callbacks.cb_log e
let mark t k = t.callbacks.cb_mark k

let announce_position t =
  t.pos_seq <- fresh_seq t;
  List.iter
    (fun p ->
      p.p_acked <- false;
      t.callbacks.cb_send ~port:p.p_port
        (Messages.Tree_position
           { epoch = t.epoch; seq = t.pos_seq; position = t.position }))
    t.peers

(* Our own contribution to the topology report. *)
let own_desc t =
  let ports =
    List.map (fun hp -> (hp, Topology_report.Host_port)) t.host_ports
    @ List.map
        (fun p ->
          ( p.p_port,
            Topology_report.Switch_link
              { peer = p.p_uid; peer_port = p.p_remote_port } ))
        t.peers
  in
  Topology_report.switch_desc ~uid:t.uid ~proposed_number:(proposed_number t)
    ~max_ports:t.max_ports ports

let merged_report t =
  List.fold_left
    (fun acc p ->
      match (p.p_child_claim, p.p_child_report) with
      | true, Some r -> Topology_report.merge acc r
      | _, _ -> acc)
    (Topology_report.singleton ~max_ports:t.max_ports (own_desc t))
    t.peers

let is_root t = Uid.equal t.position.Position.root t.uid

let claiming_children t = List.filter (fun p -> p.p_child_claim) t.peers

(* Step 5: recompute everything from the complete topology and hand the
   table to the owner for the destructive reload. *)
let finish_configuration t report =
  if not t.complete_done then begin
    t.complete_done <- true;
    t.complete <- Some report;
    let g = Topology_report.to_graph report in
    match Graph.switch_of_uid g t.uid with
    | None -> log t "complete report does not mention us!"
    | Some me ->
      let tree = Spanning_tree.compute g ~member:me in
      let assignment =
        Address_assign.make g
          (List.filter_map
             (fun d ->
               match Graph.switch_of_uid g d.Topology_report.uid with
               | Some s -> Some (s, d.Topology_report.proposed_number)
               | None -> None)
             (Topology_report.switches report))
      in
      t.my_number <- Address_assign.number assignment me;
      t.last_assignment <- Some assignment;
      let parent =
        Option.map (fun p -> p.Spanning_tree.my_port) (Spanning_tree.parent tree me)
      and children = List.map (fun (p, _, _) -> p) (Spanning_tree.children tree me) in
      let span name dur_s = t.callbacks.cb_span ~name ~dur_s in
      let pool =
        if is_root t then Some (Autonet_parallel.Pool.default ()) else None
      in
      let domains =
        match pool with
        | Some p -> Autonet_parallel.Pool.domains p
        | None -> 1
      in
      (* The delta fast path: when the previous epoch's committed state is
         on hand and the freshly computed tree and assignment prove the
         fault tree-preserving, reuse everything the proof covers and
         recompute only the affected routes and tables.  Any mismatch at
         all falls back to the unchanged full recompute below. *)
      let delta =
        if not (Delta.enabled ()) then None
        else
          match t.committed with
          | None -> None
          | Some prev ->
            let clock = t.callbacks.cb_clock in
            let c0 = clock () in
            let cls = Delta.classify ~prev ~graph:g ~tree ~assignment ~me in
            span "delta_classify" (clock () -. c0);
            (match cls with
            | Delta.Structural reason ->
              event t (Event.Delta_fallback { reason });
              None
            | Delta.Tree_preserving ch ->
              Some
                (Delta.apply ?pool ~clock ~on_span:span ~prev ~graph:g ~tree
                   ~assignment ~me ch))
      in
      (match delta with
      | Some (committed', stats) ->
        event t
          (Event.Tables_computed
             { switches = Topology_report.size report;
               number = Option.value ~default:(-1) t.my_number });
        event t
          (Event.Delta_applied
             { rebuilt = stats.Delta.st_rebuilt;
               patched = stats.Delta.st_patched;
               reused = stats.Delta.st_reused;
               dests = stats.Delta.st_dests;
               deadlock_full = stats.Delta.st_deadlock_full });
        (match stats.Delta.st_verdict with
        | Some Deadlock.Acyclic ->
          t.root_verdict <- Some Deadlock.Acyclic;
          event t
            (Event.Root_verified
               { tables =
                   (match committed'.Delta.c_all with
                   | Some a -> Array.length a
                   | None -> 0);
                 domains })
        | Some (Deadlock.Cycle _ as r) ->
          t.root_verdict <- Some r;
          event t
            (Event.Root_deadlock
               { detail = Format.asprintf "%a" Deadlock.pp_result r })
        | None -> ());
        t.committed <- Some committed';
        t.delta_spec <- Some committed'.Delta.c_own;
        mark t Autonet_telemetry.Timeline.Load_begin;
        t.callbacks.cb_load_tables committed'.Delta.c_own ~parent ~children
      | None ->
        let updown = Updown.orient g tree in
        let routes = Routes.compute g tree updown in
        let spec = Tables.build g tree updown routes assignment me in
        event t
          (Event.Tables_computed
             { switches = Topology_report.size report;
               number = Option.value ~default:(-1) t.my_number });
        (* The root already holds the complete topology, so it can afford
           the global safety check the other switches cannot: synthesize
           every member's table across the domain pool and verify the
           channel-dependency graph is acyclic before this epoch's tables
           go live.  Results are bit-identical for any domain count, so
           the simulator stays deterministic. *)
        let all =
          match pool with
          | None -> None
          | Some pool ->
            let all = Tables.build_all ~pool g tree updown routes assignment in
            (match Deadlock.check_tables ~pool g all with
            | Deadlock.Acyclic ->
              t.root_verdict <- Some Deadlock.Acyclic;
              event t
                (Event.Root_verified { tables = List.length all; domains })
            | Deadlock.Cycle _ as r ->
              t.root_verdict <- Some r;
              event t
                (Event.Root_deadlock
                   { detail = Format.asprintf "%a" Deadlock.pp_result r }));
            Some all
        in
        t.committed <-
          Some
            (Delta.commit_full ~graph:g ~tree ~updown ~routes ~assignment
               ~own:spec ~all);
        t.delta_spec <- None;
        mark t Autonet_telemetry.Timeline.Load_begin;
        t.callbacks.cb_load_tables spec ~parent ~children)
  end;
  (* Flood the complete topology to every claiming child that has not
     acknowledged it yet — including children whose claim arrived after we
     first completed. *)
  match t.complete with
  | None -> ()
  | Some report ->
    List.iter
      (fun p ->
        if (not p.p_complete_acked) && p.p_out_complete = None then begin
          let seq = fresh_seq t in
          let msg = Messages.Complete { epoch = t.epoch; seq; report } in
          p.p_out_complete <- Some (seq, msg);
          t.callbacks.cb_send ~port:p.p_port msg
        end)
      (claiming_children t)

let send_report_to_parent t report =
  let seq = fresh_seq t in
  t.report_state <- Report_pending { seq; report };
  t.callbacks.cb_send ~port:t.position.Position.parent_port
    (Messages.Stable_report { epoch = t.epoch; seq; report })

let send_retraction t =
  let seq = fresh_seq t in
  t.report_state <- Retract_pending { seq };
  t.callbacks.cb_send ~port:t.position.Position.parent_port
    (Messages.Unstable_notice { epoch = t.epoch; seq })

(* Recompute stability and act on changes.  Called after every event. *)
let evaluate t =
  let acked = List.for_all (fun p -> p.p_acked) t.peers in
  let children_ready =
    List.for_all (fun p -> p.p_child_report <> None) (claiming_children t)
  in
  let now_stable = acked && children_ready in
  let was_stable = t.stable in
  t.stable <- now_stable;
  if now_stable && not was_stable then
    mark t Autonet_telemetry.Timeline.Tree_stable;
  if now_stable then begin
    let report = merged_report t in
    if t.complete_done then begin
      (* Already completed this epoch: make sure any late-claiming child
         still receives the complete topology. *)
      match t.complete with
      | Some r -> finish_configuration t r
      | None -> ()
    end
    else if is_root t then begin
      (* The root concludes the epoch only when the accumulated topology is
         reference-closed: a report that is still missing a switch cannot
         be, because the missing switch's neighbours describe links to it. *)
      if Topology_report.closed report then begin
        if not was_stable then
          event t (Event.Root_stable { switches = Topology_report.size report });
        if not t.complete_done then
          mark t Autonet_telemetry.Timeline.Reports_closed;
        finish_configuration t report
      end
      else
        event t
          (Event.Report_waiting { switches = Topology_report.size report })
    end
    else begin
      let need_send =
        match t.report_state with
        | Report_pending { report = r; _ } | Report_acked { report = r } ->
          not (Topology_report.equal r report)
        | Nothing_sent | Retract_pending _ -> true
      in
      if need_send then send_report_to_parent t report
    end
  end
  else if was_stable && not now_stable then begin
    (* Retract a stable report the parent may be counting on. *)
    match t.report_state with
    | Report_pending _ | Report_acked _ ->
      if not (is_root t) then send_retraction t
    | Nothing_sent | Retract_pending _ -> ()
  end

let adopt_position t pos =
  event t (Event.Position_adopted { position = pos });
  t.position <- pos;
  t.stable <- false;
  (* The old parent learns from the same announcement that we moved; our
     report state starts over with the new parent. *)
  t.report_state <- Nothing_sent;
  announce_position t

let start_epoch t ?join ~usable ~host_ports () =
  let e =
    match join with Some e -> e | None -> Epoch.next t.epoch
  in
  t.epoch <- e;
  t.position <- Position.root_position t.uid;
  t.peers <-
    List.map
      (fun (port, uid, remote_port) ->
        { p_port = port;
          p_uid = uid;
          p_remote_port = remote_port;
          p_acked = false;
          p_last_pos_seq = 0;
          p_child_claim = false;
          p_child_report = None;
          p_out_complete = None;
          p_complete_acked = false })
      usable;
  t.host_ports <- host_ports;
  t.stable <- false;
  t.configured <- false;
  t.report_state <- Nothing_sent;
  t.complete <- None;
  t.complete_done <- false;
  t.delta_spec <- None;
  t.root_verdict <- None;
  (* t.committed survives: it is exactly what the delta path reuses. *)
  event t
    (Event.Epoch_started { epoch = e; usable_links = List.length t.peers });
  mark t Autonet_telemetry.Timeline.Epoch_start;
  t.callbacks.cb_load_constant ();
  announce_position t;
  (* A lone switch with no usable links is immediately stable root. *)
  evaluate t

let handle_message t ~port msg =
  match Messages.epoch_of msg with
  | None -> `Ignored
  | Some e ->
    if Epoch.(e > t.epoch) then `Join_epoch e
    else if not (Epoch.equal e t.epoch) then `Handled (* stale: drop *)
    else begin
      (match msg with
      | Messages.Tree_position { seq; position = pos; _ } -> begin
        match peer_at t port with
        | None -> () (* not usable on our side this epoch *)
        | Some p ->
          (* Does the sender claim us as parent through this very link? *)
          let claims =
            Uid.equal pos.Position.parent t.uid
            && pos.Position.parent_port = p.p_remote_port
          in
          if seq > p.p_last_pos_seq then begin
            p.p_last_pos_seq <- seq;
            (* A fresh announcement means the child restarted its stability
               work: whatever report we hold for it is now provisional. *)
            p.p_child_report <- None
          end
          else if p.p_child_claim && not claims then p.p_child_report <- None;
          p.p_child_claim <- claims;
          let candidate =
            { Position.root = pos.Position.root;
              level = pos.Position.level + 1;
              parent = p.p_uid;
              parent_port = p.p_port }
          in
          if Position.better candidate t.position then adopt_position t candidate;
          let now_my_parent =
            Uid.equal t.position.Position.parent p.p_uid
            && t.position.Position.parent_port = p.p_port
            && not (is_root t)
          in
          t.callbacks.cb_send ~port
            (Messages.Tree_ack { epoch = t.epoch; seq; now_my_parent });
          evaluate t
      end
      | Messages.Tree_ack { seq; now_my_parent; _ } -> begin
        match peer_at t port with
        | None -> ()
        | Some p ->
          if seq = t.pos_seq then begin
            p.p_acked <- true;
            if p.p_child_claim && not now_my_parent then
              p.p_child_report <- None;
            p.p_child_claim <- now_my_parent;
            evaluate t
          end
      end
      | Messages.Stable_report { seq; report; _ } -> begin
        match peer_at t port with
        | None -> ()
        | Some p ->
          p.p_child_report <- Some report;
          t.callbacks.cb_send ~port
            (Messages.Report_ack { epoch = t.epoch; seq });
          evaluate t
      end
      | Messages.Unstable_notice { seq; _ } -> begin
        match peer_at t port with
        | None -> ()
        | Some p ->
          p.p_child_report <- None;
          t.callbacks.cb_send ~port
            (Messages.Report_ack { epoch = t.epoch; seq });
          evaluate t
      end
      | Messages.Report_ack { seq; _ } -> begin
        match t.report_state with
        | Report_pending { seq = s; report } when s = seq ->
          t.report_state <- Report_acked { report }
        | Retract_pending { seq = s } when s = seq ->
          t.report_state <- Nothing_sent
        | _ -> ()
      end
      | Messages.Complete { seq; report; _ } ->
        t.callbacks.cb_send ~port
          (Messages.Complete_ack { epoch = t.epoch; seq });
        if Topology_report.mem report t.uid then finish_configuration t report
        else log t "ignoring a complete report that omits us"
      | Messages.Complete_ack { seq; _ } -> begin
        match peer_at t port with
        | None -> ()
        | Some p -> begin
          match p.p_out_complete with
          | Some (s, _) when s = seq ->
            p.p_out_complete <- None;
            p.p_complete_acked <- true
          | Some _ | None -> ()
        end
      end
      | Messages.Conn_test _ | Messages.Conn_reply _ | Messages.Host_query _
      | Messages.Host_addr _ | Messages.Srp_request _ | Messages.Srp_response _
      | Messages.Version_offer _ ->
        ());
      `Handled
    end

let note_configured t =
  t.configured <- true;
  mark t Autonet_telemetry.Timeline.Configured;
  t.callbacks.cb_configured ()

let on_retransmit_timer t =
  (* Unacked position announcements. *)
  List.iter
    (fun p ->
      if not p.p_acked then
        t.callbacks.cb_send ~port:p.p_port
          (Messages.Tree_position
             { epoch = t.epoch; seq = t.pos_seq; position = t.position }))
    t.peers;
  (* Outstanding report or retraction toward the parent. *)
  if not (is_root t) then begin
    match t.report_state with
    | Report_pending { seq; report } ->
      t.callbacks.cb_send ~port:t.position.Position.parent_port
        (Messages.Stable_report { epoch = t.epoch; seq; report })
    | Retract_pending { seq } ->
      t.callbacks.cb_send ~port:t.position.Position.parent_port
        (Messages.Unstable_notice { epoch = t.epoch; seq })
    | Nothing_sent | Report_acked _ -> ()
  end;
  (* Outstanding Complete floods toward the children. *)
  List.iter
    (fun p ->
      match p.p_out_complete with
      | Some (_, msg) -> t.callbacks.cb_send ~port:p.p_port msg
      | None -> ())
    t.peers

let stop t =
  t.epoch <- Epoch.zero;
  t.position <- Position.root_position t.uid;
  t.peers <- [];
  t.host_ports <- [];
  t.stable <- false;
  t.configured <- false;
  t.report_state <- Nothing_sent;
  t.my_number <- None;
  t.last_assignment <- None;
  t.complete <- None;
  t.complete_done <- false;
  t.committed <- None;
  t.delta_spec <- None;
  t.root_verdict <- None

(* Protocol-level unit tests for the reconfiguration engine: Reconfig
   instances wired through in-memory queues with hand-controlled delivery —
   no timers, no fabric timing — so the spanning-tree handshake, stability
   detection, epoch joining, address-proposal stability and loss recovery
   can each be exercised deterministically. *)

open Autonet_net
open Autonet_core
module B = Autonet_topo.Builders
module Reconfig = Autonet_autopilot.Reconfig
module Messages = Autonet_autopilot.Messages
module Fabric = Autonet_autopilot.Fabric

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type node = {
  switch : Graph.switch;
  rc : Reconfig.t;
  inbox : (int * Messages.t) Queue.t; (* (arrival port, message) *)
  mutable configured_count : int;
  mutable events : Autonet_autopilot.Event.t list;  (* newest first *)
  mutable loaded : Tables.spec option;  (* the last table handed over *)
}

type net = {
  graph : Graph.t;
  epochs : Autonet_autopilot.Epoch_cache.t;
  nodes : node array;
}

let make_net topo =
  let g = topo.B.graph in
  (* A fabric is needed only for max_ports; transport goes through the
     in-memory queues below. *)
  let engine = Autonet_sim.Engine.create () in
  let fabric =
    Fabric.create ~engine ~graph:g ~params:Autonet_autopilot.Params.fast
  in
  let epochs = Autonet_autopilot.Epoch_cache.create () in
  let nodes = Array.make (Graph.switch_count g) None in
  let node_of s = Option.get nodes.(s) in
  List.iter
    (fun s ->
      let inbox = Queue.create () in
      let rec node =
        lazy
          (let callbacks =
             { Reconfig.cb_send =
                 (fun ~port msg ->
                   (* Lossless, ordered delivery to whatever the port is
                      cabled to. *)
                   match Graph.link_at g (s, port) with
                   | None -> ()
                   | Some l_id -> (
                     match Graph.link g l_id with
                     | None -> ()
                     | Some l ->
                       let peer, peer_port = Graph.other_end l s in
                       Queue.add (peer_port, msg) (node_of peer).inbox));
               cb_load_constant = (fun () -> ());
               cb_load_tables =
                 (fun spec ->
                   let n = Lazy.force node in
                   n.loaded <- Some spec;
                   Reconfig.note_configured n.rc);
               cb_configured =
                 (fun () ->
                   let n = Lazy.force node in
                   n.configured_count <- n.configured_count + 1);
               cb_log =
                 (fun e ->
                   let n = Lazy.force node in
                   n.events <- e :: n.events) }
           in
           { switch = s;
             rc =
               Reconfig.create ~fabric ~epochs ~switch:s ~uid:(Graph.uid g s)
                 ~callbacks ();
             inbox;
             configured_count = 0;
             events = [];
             loaded = None })
      in
      nodes.(s) <- Some (Lazy.force node))
    (Graph.switches g);
  { graph = g; epochs; nodes = Array.map Option.get nodes }

let usable_of net s =
  List.map
    (fun (p, _, peer, peer_port) -> (p, Graph.uid net.graph peer, peer_port))
    (Graph.neighbors net.graph s)

let start_epoch ?join net s =
  Reconfig.start_epoch net.nodes.(s).rc ?join ~usable:(usable_of net s)
    ~host_ports:[] ()

(* Deliver queued messages round-robin until quiescent, handling epoch
   joins the way Autopilot does. *)
let pump ?(max_steps = 100_000) net =
  let steps = ref 0 in
  let progressing = ref true in
  while !progressing && !steps < max_steps do
    progressing := false;
    Array.iter
      (fun n ->
        match Queue.take_opt n.inbox with
        | None -> ()
        | Some (port, msg) -> (
          progressing := true;
          incr steps;
          match Reconfig.handle_message n.rc ~port msg with
          | `Handled | `Ignored -> ()
          | `Join_epoch e ->
            Reconfig.start_epoch n.rc ~join:e ~usable:(usable_of net n.switch)
              ~host_ports:[] ();
            (match Reconfig.handle_message n.rc ~port msg with
            | `Handled | `Ignored -> ()
            | `Join_epoch _ -> Alcotest.fail "join loop")))
      net.nodes
  done;
  if !steps >= max_steps then Alcotest.fail "protocol did not quiesce"

let all_configured net =
  Array.for_all (fun n -> Reconfig.configured n.rc) net.nodes

let check_matches_reference net =
  let tree = Spanning_tree.compute net.graph ~member:0 in
  Array.iter
    (fun n ->
      check_bool
        (Printf.sprintf "s%d configured" n.switch)
        true
        (Reconfig.configured n.rc);
      let pos = Reconfig.position n.rc in
      let want = Spanning_tree.position tree net.graph n.switch in
      check_bool
        (Format.asprintf "s%d position %a = %a" n.switch
           Spanning_tree.Position.pp pos Spanning_tree.Position.pp want)
        true
        (Spanning_tree.Position.equal pos want))
    net.nodes;
  (* Complete reports all identical and covering the component. *)
  let r0 = Option.get (Reconfig.complete_report net.nodes.(0).rc) in
  check_int "report size" (Graph.switch_count net.graph)
    (Topology_report.size r0);
  Array.iter
    (fun n ->
      check_bool "same report" true
        (Topology_report.equal r0
           (Option.get (Reconfig.complete_report n.rc))))
    net.nodes

(* ------------------------------------------------------------------ *)

let test_line_handshake () =
  let net = make_net (B.line ~n:3 ()) in
  Array.iter (fun n -> start_epoch net n.switch) net.nodes;
  pump net;
  check_bool "all configured" true (all_configured net);
  check_matches_reference net

let test_single_initiator_spreads () =
  (* Only one switch starts the epoch; everyone else joins through the
     tree-position packets. *)
  let net = make_net (B.torus ~rows:3 ~cols:3 ()) in
  start_epoch net 4;
  pump net;
  check_bool "all configured" true (all_configured net);
  check_matches_reference net;
  Array.iter
    (fun n ->
      check_bool "same epoch" true
        (Epoch.equal (Reconfig.epoch n.rc) (Reconfig.epoch net.nodes.(0).rc)))
    net.nodes

let test_higher_epoch_wins () =
  let net = make_net (B.line ~n:3 ()) in
  Array.iter (fun n -> start_epoch net n.switch) net.nodes;
  pump net;
  let e1 = Reconfig.epoch net.nodes.(0).rc in
  (* Switch 2 notices something and starts over; everyone must follow. *)
  start_epoch net 2;
  pump net;
  check_bool "all configured again" true (all_configured net);
  check_bool "epoch advanced" true Epoch.(Reconfig.epoch net.nodes.(0).rc > e1);
  check_matches_reference net

let test_numbers_survive_epochs () =
  let net = make_net (B.torus ~rows:2 ~cols:3 ()) in
  Array.iter (fun n -> start_epoch net n.switch) net.nodes;
  pump net;
  let numbers1 =
    Array.map (fun n -> Option.get (Reconfig.switch_number n.rc)) net.nodes
  in
  start_epoch net 3;
  pump net;
  let numbers2 =
    Array.map (fun n -> Option.get (Reconfig.switch_number n.rc)) net.nodes
  in
  check_bool "numbers preserved" true (numbers1 = numbers2)

let test_retransmission_recovers_losses () =
  (* Drop the first K deliveries outright; the retransmit timer must
     repair the conversation. *)
  let net = make_net (B.line ~n:4 ()) in
  Array.iter (fun n -> start_epoch net n.switch) net.nodes;
  (* Throw away everything currently queued (simulating the reset windows
     destroying the opening volley). *)
  Array.iter (fun n -> Queue.clear n.inbox) net.nodes;
  check_bool "nothing configured yet" false (all_configured net);
  (* Fire the retransmit timers a few times with pumping between. *)
  for _ = 1 to 5 do
    Array.iter (fun n -> Reconfig.on_retransmit_timer n.rc) net.nodes;
    pump net
  done;
  check_bool "recovered" true (all_configured net);
  check_matches_reference net

let test_lone_switch_configures_itself () =
  let net = make_net (B.line ~n:1 ()) in
  start_epoch net 0;
  pump net;
  check_bool "configured" true (Reconfig.configured net.nodes.(0).rc);
  check_bool "is root" true
    (Uid.equal
       (Reconfig.position net.nodes.(0).rc).Spanning_tree.Position.root
       (Graph.uid net.graph 0));
  check_int "report of one" 1
    (Topology_report.size (Option.get (Reconfig.complete_report net.nodes.(0).rc)))

let test_stability_requires_children_reports () =
  (* On a line 0-1-2 with UIDs ascending, 0 is root.  Deliver messages
     selectively: starve 1 of 2's report and check 0 never completes. *)
  let net = make_net (B.line ~n:3 ()) in
  Array.iter (fun n -> start_epoch net n.switch) net.nodes;
  (* Pump only messages NOT carrying reports from 2 to 1. *)
  let steps = ref 0 in
  let continue = ref true in
  while !continue && !steps < 10_000 do
    continue := false;
    Array.iter
      (fun n ->
        (* peek and maybe skip *)
        match Queue.take_opt n.inbox with
        | None -> ()
        | Some (port, msg) ->
          incr steps;
          let is_report =
            match msg with Messages.Stable_report _ -> true | _ -> false
          in
          (* Starve only reports arriving at switch 1 over its link to 2. *)
          let from_two =
            match Graph.link_at net.graph (1, port) with
            | Some l_id -> (
              match Graph.link net.graph l_id with
              | Some l -> fst (Graph.other_end l 1) = 2
              | None -> false)
            | None -> false
          in
          if n.switch = 1 && is_report && from_two then
            continue := true (* dropped *)
          else begin
            continue := true;
            match Reconfig.handle_message n.rc ~port msg with
            | `Handled | `Ignored -> ()
            | `Join_epoch e ->
              Reconfig.start_epoch n.rc ~join:e
                ~usable:(usable_of net n.switch) ~host_ports:[] ();
              ignore (Reconfig.handle_message n.rc ~port msg)
          end)
      net.nodes
  done;
  (* The root cannot have completed: its report would not be closed
     without switch 2's subtree. *)
  check_bool "root incomplete while starved" false
    (Reconfig.configured net.nodes.(0).rc);
  (* Releasing the starvation (via retransmission) completes it. *)
  for _ = 1 to 3 do
    Array.iter (fun n -> Reconfig.on_retransmit_timer n.rc) net.nodes;
    pump net
  done;
  check_bool "completes once fed" true (all_configured net)

(* A closed report need not be connected: two switches with host ports
   and no link between them.  The protocol never floods one, but a switch
   handed one must configure as its own chain would — on the tree of its
   own component, with the whole report's address assignment — and no
   other switch may share the result. *)
let test_disconnected_report_not_shared () =
  let module EC = Autonet_autopilot.Epoch_cache in
  let net = make_net (B.line ~n:2 ()) in
  Array.iter (fun n -> start_epoch net n.switch) net.nodes;
  pump net;
  check_bool "configured" true (all_configured net);
  let mp = Graph.max_ports net.graph in
  let desc s =
    Topology_report.switch_desc ~uid:(Graph.uid net.graph s)
      ~proposed_number:(s + 1) ~max_ports:mp
      [ (mp, Topology_report.Host_port) ]
  in
  let report =
    Topology_report.merge
      (Topology_report.singleton ~max_ports:mp (desc 0))
      (Topology_report.singleton ~max_ports:mp (desc 1))
  in
  check_bool "closed" true (Topology_report.closed report);
  let deliver s =
    let n = net.nodes.(s) in
    (* Its own chain's previous commit: the last report it completed. *)
    let last = Option.get (Reconfig.complete_report n.rc) in
    let uid = Graph.uid net.graph s in
    let prev =
      Option.map
        (fun r -> r.Old_chain.committed)
        (Old_chain.run ~prev:None ~root:(s = 0) last uid)
    in
    start_epoch net s;
    Queue.clear n.inbox;
    n.events <- [];
    let before = EC.stats net.epochs in
    ignore
      (Reconfig.handle_message n.rc ~port:1
         (Messages.Complete { epoch = Reconfig.epoch n.rc; seq = 1; report }));
    let after = EC.stats net.epochs in
    (* It has not heard its neighbour this epoch: it is its own root. *)
    let want = Option.get (Old_chain.run ~prev ~root:true report uid) in
    check_bool "its chain refuses the delta path" true
      (List.mem
         (Autonet_autopilot.Event.Delta_fallback { reason = "graph not connected" })
         want.events);
    check_bool (Printf.sprintf "s%d configured" s) true (Reconfig.configured n.rc);
    check_bool
      (Printf.sprintf "s%d logged its own chain's events" s)
      true
      (List.filter Old_chain.step5 (List.rev n.events) = want.events);
    check_bool
      (Printf.sprintf "s%d loaded its own chain's table" s)
      true
      (match n.loaded with
      | Some spec -> Tables.equal_spec spec want.table
      | None -> false);
    check_bool
      (Printf.sprintf "s%d number from the whole report" s)
      true
      (Reconfig.switch_number n.rc = Some (s + 1));
    check_int "not a hit" before.EC.hits after.EC.hits;
    check_bool "no entry for it" true (EC.tables net.epochs report = None)
  in
  deliver 0;
  deliver 1;
  check_int "both commits released" 0 (EC.stats net.epochs).EC.live

let () =
  Alcotest.run "reconfig-protocol"
    [ ( "handshake",
        [ Alcotest.test_case "line" `Quick test_line_handshake;
          Alcotest.test_case "single initiator" `Quick
            test_single_initiator_spreads;
          Alcotest.test_case "higher epoch wins" `Quick test_higher_epoch_wins;
          Alcotest.test_case "numbers survive" `Quick test_numbers_survive_epochs;
          Alcotest.test_case "lone switch" `Quick test_lone_switch_configures_itself ] );
      ( "robustness",
        [ Alcotest.test_case "loss recovery" `Quick
            test_retransmission_recovers_losses;
          Alcotest.test_case "stability needs reports" `Quick
            test_stability_requires_children_reports;
          Alcotest.test_case "disconnected report not shared" `Quick
            test_disconnected_report_not_shared ] ) ]

(* Integration tests for the full service stack: port-monitor
   classification against fabric conditions, SRP end to end, the data path
   during reconfigurations, and the Service wiring. *)

open Autonet_net
open Autonet_core
module B = Autonet_topo.Builders
module N = Autonet.Network
module S = Autonet.Service
module AP = Autonet_autopilot.Autopilot
module PS2 = Autonet_autopilot.Port_state
module Fabric = Autonet_autopilot.Fabric
module Messages = Autonet_autopilot.Messages
module Event_log = Autonet_autopilot.Event_log
module PS = Autonet_dataplane.Packet_sim
module LN = Autonet_host.Localnet
module F = Autonet_topo.Faults
module Time = Autonet_sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fast = Autonet_autopilot.Params.fast

(* ------------------------------------------------------------------ *)
(* Port monitor classification against physical conditions *)

let test_ports_classify_correctly () =
  (* One switch with: a link to a live switch, a link to a powered-off
     switch, an active host, an alternate host, a loop link, and an
     uncabled port. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(Uid.of_int 0x10) in
  let s1 = Graph.add_switch g ~uid:(Uid.of_int 0x20) in
  let s2 = Graph.add_switch g ~uid:(Uid.of_int 0x30) in
  ignore (Graph.connect g (s0, 1) (s1, 1));
  ignore (Graph.connect g (s0, 2) (s2, 1));
  ignore (Graph.connect g (s0, 3) (s0, 4)); (* loop *)
  Graph.attach_host g ~host_uid:(Uid.of_int 0xA0) ~host_port:0 (s0, 5);
  Graph.attach_host g ~host_uid:(Uid.of_int 0xA1) ~host_port:1 (s0, 6);
  let net = N.create ~params:fast { B.graph = g; name = "mixed" } in
  N.start net;
  (* Power s2 off before its links verify. *)
  N.apply_fault net (F.Switch_down s2);
  (* The A1 host's port 6 is its alternate (host_port = 1): inactive. *)
  N.run_for net (Time.s 5);
  let ap = N.autopilot net s0 in
  check_bool "p1 live switch" true (AP.port_state ap ~port:1 = PS2.Switch_good);
  (* p2 leads to a dead switch: reflections, never a proper reply. *)
  check_bool "p2 dead switch"
    true
    (match AP.port_state ap ~port:2 with
    | PS2.Switch_who | PS2.Switch_loop -> true
    | _ -> false);
  check_bool "p3 loop" true (AP.port_state ap ~port:3 = PS2.Switch_loop);
  check_bool "p4 loop" true (AP.port_state ap ~port:4 = PS2.Switch_loop);
  check_bool "p5 active host" true (AP.port_state ap ~port:5 = PS2.Host);
  check_bool "p6 alternate host" true (AP.port_state ap ~port:6 = PS2.Host);
  check_bool "p7 uncabled stays dead" true (AP.port_state ap ~port:7 = PS2.Dead)

let test_idhy_propagates_death () =
  (* Forcing one end of a link dead makes the peer's end distrust it too
     (the idhy mechanism), and triggers a reconfiguration. *)
  let net = N.create ~params:fast (B.line ~n:2 ()) in
  N.start net;
  ignore (N.run_until_converged net);
  let ap0 = N.autopilot net 0 and ap1 = N.autopilot net 1 in
  let port0 = 1 and port1 = 1 in
  check_bool "good before" true (AP.port_state ap1 ~port:port1 = PS2.Switch_good);
  let e_before = AP.epoch ap1 in
  AP.force_port_dead ap0 ~port:port0;
  N.run_for net (Time.ms 200);
  check_bool "peer dead via idhy" true (AP.port_state ap1 ~port:port1 = PS2.Dead);
  N.run_for net (Time.ms 200);
  check_bool "peer reconfigured" true Epoch.(AP.epoch ap1 > e_before);
  (* The cable itself is healthy, so after the skeptics' hold-down the
     port re-verifies and the two switches rejoin one tree. *)
  ignore (N.run_until_converged net);
  check_bool "rejoined one tree" true
    (Uid.equal
       (AP.position ap0).Spanning_tree.Position.root
       (AP.position ap1).Spanning_tree.Position.root)

(* ------------------------------------------------------------------ *)
(* SRP end to end *)

let test_srp_get_state_roundtrip () =
  let net = N.create ~params:fast (B.torus ~rows:3 ~cols:3 ()) in
  N.start net;
  ignore (N.run_until_converged net);
  (* Probe the switch two hops away from switch 0 via explicit ports. *)
  let g = N.graph net in
  let p1, _, n1, _ = List.hd (Graph.neighbors g 0) in
  let p2, _, n2, _ =
    List.find (fun (_, _, peer, _) -> peer <> 0) (Graph.neighbors g n1)
  in
  Fabric.switch_send (N.fabric net) ~from:0 ~port:p1
    (Messages.to_packet
       (Messages.Srp_request
          { route = [ p2 ]; reply_route = []; request = Messages.Get_state }));
  N.run_for net (Time.ms 100);
  let entries = Event_log.entries (AP.event_log (N.autopilot net 0)) in
  let got =
    List.exists
      (fun e ->
        let m = Event_log.message e in
        String.length m > 13 && String.sub m 0 13 = "srp response:")
      entries
  in
  check_bool (Printf.sprintf "probe of s%d answered" n2) true got

let test_srp_get_topology () =
  let net = N.create ~params:fast (B.line ~n:3 ()) in
  N.start net;
  ignore (N.run_until_converged net);
  let g = N.graph net in
  let p1, _, _, _ = List.hd (Graph.neighbors g 0) in
  Fabric.switch_send (N.fabric net) ~from:0 ~port:p1
    (Messages.to_packet
       (Messages.Srp_request
          { route = []; reply_route = []; request = Messages.Get_topology }));
  N.run_for net (Time.ms 100);
  let entries = Event_log.entries (AP.event_log (N.autopilot net 0)) in
  check_bool "topology of 3 switches" true
    (List.exists
       (fun e -> Event_log.message e = "srp response: topology of 3 switches")
       entries)

(* ------------------------------------------------------------------ *)
(* Data path during reconfiguration *)

let test_drops_confined_to_reconfiguration () =
  let net =
    N.create ~params:fast ~seed:5L
      (B.attach_hosts (B.torus ~rows:2 ~cols:3 ()) ~per_switch:2)
  in
  let svc = S.create net in
  S.start svc;
  check_bool "ready" true (S.run_until_hosts_ready svc);
  let hs = S.hosts svc in
  let a = List.hd hs and b = List.nth hs (List.length hs - 1) in
  let got = ref 0 in
  LN.set_client_rx b.S.localnet (fun _ -> incr got);
  let say () =
    ignore
      (S.send_datagram svc ~from:a.S.uid
         (Eth.make ~dst:b.S.uid ~src:a.S.uid ~ethertype:0x0800 ~payload:"x"))
  in
  (* Steady state: everything arrives. *)
  for _ = 1 to 20 do
    say ();
    N.run_for net (Time.ms 2)
  done;
  check_int "steady" 20 !got;
  (* Fail a link not adjacent to either host's active switch and keep
     talking: some packets die against cleared tables, then it heals. *)
  let avoid =
    [ fst (Autonet_host.Driver.active a.S.driver);
      fst (Autonet_host.Driver.active b.S.driver) ]
  in
  let l =
    List.find
      (fun (l : Graph.link) ->
        (not (List.mem (fst l.a) avoid)) && not (List.mem (fst l.b) avoid))
      (Graph.links (N.graph net))
  in
  N.apply_fault net (F.Link_down l.Graph.id);
  for _ = 1 to 30 do
    say ();
    N.run_for net (Time.ms 2)
  done;
  let after_fault = !got in
  check_bool "some dropped during reconfiguration" true (after_fault < 50);
  ignore (N.run_until_converged net);
  let before = !got in
  for _ = 1 to 20 do
    say ();
    N.run_for net (Time.ms 2)
  done;
  check_int "clean after reconvergence" 20 (!got - before)

let test_packet_sim_uses_live_tables () =
  (* While a reconfiguration is in flight the tables are cleared and the
     packet simulator discards; afterwards it delivers. *)
  let net =
    N.create ~params:fast ~seed:5L
      (B.attach_hosts (B.line ~n:2 ()) ~per_switch:2)
  in
  let svc = S.create net in
  S.start svc;
  check_bool "ready" true (S.run_until_hosts_ready svc);
  let ps = S.packet_sim svc in
  let hs = S.hosts svc in
  let a = List.hd hs and b = List.nth hs (List.length hs - 1) in
  (* Trigger a reconfiguration and immediately send. *)
  AP.initiate_reconfiguration (N.autopilot net 0) ~reason:"test";
  let d0 = PS.discarded_count ps in
  ignore
    (S.send_datagram svc ~from:a.S.uid
       (Eth.make ~dst:b.S.uid ~src:a.S.uid ~ethertype:0x0800 ~payload:"x"));
  N.run_for net (Time.ms 2);
  check_bool "discarded against cleared tables" true (PS.discarded_count ps > d0)

let test_service_hosts_dual_homed () =
  let net =
    N.create ~params:fast (B.attach_hosts (B.ring ~n:4 ()) ~per_switch:4)
  in
  let svc = S.create net in
  let g = N.graph net in
  List.iter
    (fun h ->
      let atts = Graph.host_attachments g h.S.uid in
      check_int "two attachments" 2 (List.length atts))
    (S.hosts svc);
  check_int "controllers" 8 (List.length (S.hosts svc))

let test_merged_log_records_skew () =
  (* Clock skews differ between switches but merge normalizes them. *)
  let net = N.create ~params:fast (B.line ~n:3 ()) in
  N.start net;
  ignore (N.run_until_converged net);
  let skews =
    List.map
      (fun s -> Event_log.skew (AP.event_log (N.autopilot net s)))
      [ 0; 1; 2 ]
  in
  check_bool "skews differ" true
    (List.length (List.sort_uniq compare skews) > 1)

let test_reset_losses_counted () =
  (* The destructive reload destroys some packets; the stat must show it
     on a busy reconfiguration. *)
  let net = N.create ~params:Autonet_autopilot.Params.naive (B.torus ~rows:3 ~cols:3 ()) in
  N.start net;
  ignore (N.run_until_converged ~timeout:(Time.s 300) net);
  let total =
    List.fold_left
      (fun acc s ->
        acc + (AP.stats (N.autopilot net s)).AP.packets_lost_to_reset)
      0
      (Graph.switches (N.graph net))
  in
  check_bool (Printf.sprintf "losses %d" total) true (total > 0)

let test_late_host_enabled_without_reconfiguration () =
  (* A host powered off during boot leaves its port unclassified; powering
     it on later classifies the port s.host and the switch enables it in
     the local forwarding table without any network-wide reconfiguration
     (paper 6.5.3). *)
  let net =
    N.create ~params:fast ~seed:5L
      (B.attach_hosts ~dual_homed:false (B.line ~n:2 ()) ~per_switch:2)
  in
  let g = N.graph net in
  let late = List.hd (Graph.hosts g) in
  let late_ep = (late.Graph.switch, late.Graph.switch_port) in
  Fabric.power_off_host (N.fabric net) late_ep;
  N.start net;
  ignore (N.run_until_converged net);
  let ap = N.autopilot net late.Graph.switch in
  check_bool "port not a host yet" true
    (AP.port_state ap ~port:late.Graph.switch_port <> PS2.Host);
  let reconfigs_before =
    List.fold_left
      (fun acc s ->
        acc + (AP.stats (N.autopilot net s)).AP.reconfigurations_started)
      0 (Graph.switches g)
  in
  Fabric.power_on_host (N.fabric net) late_ep;
  N.run_for net (Time.s 3);
  check_bool "now a host" true
    (AP.port_state ap ~port:late.Graph.switch_port = PS2.Host);
  let reconfigs_after =
    List.fold_left
      (fun acc s ->
        acc + (AP.stats (N.autopilot net s)).AP.reconfigurations_started)
      0 (Graph.switches g)
  in
  check_int "no reconfiguration for a host" reconfigs_before reconfigs_after;
  (* And the enabled port actually receives traffic end to end. *)
  let table = AP.forwarding_table ap in
  let number = Option.get (AP.switch_number ap) in
  let addr =
    Short_address.assigned ~switch_number:number ~port:late.Graph.switch_port
  in
  let entry =
    Autonet_switch.Forwarding_table.lookup table ~in_port:0 ~dst:addr
  in
  check_bool "delivery entry installed" true
    (Port_vector.mem late.Graph.switch_port (Tables.vector entry));
  (* A datagram from the late host reaches a host on the other switch. *)
  let ps =
    PS.create ~engine:(N.engine net) g ~tables:(fun s ->
        AP.forwarding_table (N.autopilot net s))
  in
  let far =
    List.find (fun h -> h.Graph.switch <> late.Graph.switch) (Graph.hosts g)
  in
  let far_ep = (far.Graph.switch, far.Graph.switch_port) in
  let far_addr =
    Short_address.assigned
      ~switch_number:
        (Option.get (AP.switch_number (N.autopilot net far.Graph.switch)))
      ~port:far.Graph.switch_port
  in
  let got = ref 0 in
  PS.set_host_rx ps far_ep (fun _ -> incr got);
  PS.send ps ~from:late_ep
    (Packet.client ~dst:far_addr ~src:addr
       (Eth.make ~dst:far.Graph.host_uid ~src:late.Graph.host_uid
          ~ethertype:0x0800 ~payload:"late"));
  N.run_for net (Time.ms 5);
  check_int
    (Printf.sprintf "datagram from s%d.p%d reached s%d.p%d" late.Graph.switch
       late.Graph.switch_port far.Graph.switch far.Graph.switch_port)
    1 !got

let test_version_rollout () =
  (* Release v2 at one switch: it sweeps the network, every switch reboots
     into it, and the network reconverges (paper 5.4, 7). *)
  let net = N.create ~params:fast (B.torus ~rows:2 ~cols:3 ()) in
  N.start net;
  ignore (N.run_until_converged net);
  AP.release_version (N.autopilot net 0) ~version:2;
  (* Wait for every switch to run v2 and the network to settle. *)
  let deadline = Time.add (N.now net) (Time.s 120) in
  let all_v2 () =
    List.for_all
      (fun s -> AP.software_version (N.autopilot net s) = 2)
      (Graph.switches (N.graph net))
  in
  let rec wait () =
    if all_v2 () then true
    else if N.now net > deadline then false
    else begin
      N.run_for net (Time.ms 50);
      wait ()
    end
  in
  check_bool "rollout reached every switch" true (wait ());
  check_bool "network reconverged" true
    (N.run_until_converged ~timeout:(Time.s 120) net <> None);
  check_bool "reference after rollout" true (N.verify_against_reference net)

let test_version_rollout_causes_reconfigurations () =
  let net = N.create ~params:fast (B.line ~n:3 ()) in
  N.start net;
  ignore (N.run_until_converged net);
  let count () =
    List.fold_left
      (fun acc s ->
        acc + (AP.stats (N.autopilot net s)).AP.reconfigurations_started)
      0
      (Graph.switches (N.graph net))
  in
  let before = count () in
  AP.release_version (N.autopilot net 1) ~version:2;
  N.run_for net (Time.s 10);
  check_bool "storm of reconfigurations" true (count () - before >= 3);
  check_bool "old versions never win" true
    (List.for_all
       (fun s -> AP.software_version (N.autopilot net s) = 2)
       (Graph.switches (N.graph net)))

let () =
  Alcotest.run "service"
    [ ( "port_monitor",
        [ Alcotest.test_case "classification" `Quick test_ports_classify_correctly;
          Alcotest.test_case "idhy propagates death" `Quick
            test_idhy_propagates_death ] );
      ( "srp",
        [ Alcotest.test_case "get_state roundtrip" `Quick
            test_srp_get_state_roundtrip;
          Alcotest.test_case "get_topology" `Quick test_srp_get_topology ] );
      ( "dataplane_integration",
        [ Alcotest.test_case "drops confined to reconfig" `Slow
            test_drops_confined_to_reconfiguration;
          Alcotest.test_case "live tables" `Quick test_packet_sim_uses_live_tables;
          Alcotest.test_case "dual-homed wiring" `Quick
            test_service_hosts_dual_homed ] );
      ( "observability",
        [ Alcotest.test_case "clock skews" `Quick test_merged_log_records_skew;
          Alcotest.test_case "reset losses counted" `Slow test_reset_losses_counted ] );
      ( "late_host",
        [ Alcotest.test_case "enabled without reconfiguration" `Quick
            test_late_host_enabled_without_reconfiguration ] );
      ( "rollout",
        [ Alcotest.test_case "reaches every switch" `Slow test_version_rollout;
          Alcotest.test_case "causes reconfigurations" `Slow
            test_version_rollout_causes_reconfigurations ] ) ]

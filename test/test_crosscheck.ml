(* Cross-simulator consistency: the slot-level simulator, the packet-level
   simulator and the pure table-walking verifier must agree about where
   packets go — on random topologies, for unicast and broadcast alike. *)

open Autonet_core
open Autonet_net
module B = Autonet_topo.Builders
module FS = Autonet_dataplane.Flit_sim
module PS = Autonet_dataplane.Packet_sim
module FT = Autonet_switch.Forwarding_table
module Rng = Autonet_sim.Rng

let check_bool = Alcotest.(check bool)

let random_configured seed ~max_n =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let topo = Testlib.random_topology rng ~max_n in
  (Testlib.configure topo, rng)

let host_eps g =
  List.map (fun (h : Graph.host_attachment) -> (h.switch, h.switch_port))
    (Graph.hosts g)

let make_ps (c : Testlib.configured) =
  let engine = Autonet_sim.Engine.create () in
  let tables = Hashtbl.create 8 in
  List.iter
    (fun spec ->
      let ft = FT.create ~max_ports:(Graph.max_ports c.Testlib.graph) in
      FT.load_spec ft spec;
      Hashtbl.replace tables (Tables.switch spec) ft)
    c.Testlib.specs;
  (engine, PS.create ~engine c.Testlib.graph ~tables:(fun s -> Hashtbl.find tables s))

(* Flit simulator delivers each unicast exactly where the verifier says. *)
let flit_matches_verify =
  QCheck.Test.make ~name:"flit delivery agrees with the table walk" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, rng = random_configured (seed + 3) ~max_n:6 in
      let g = c.Testlib.graph in
      let hosts = Array.of_list (host_eps g) in
      let src = hosts.(Rng.int rng (Array.length hosts)) in
      let dst_ep = hosts.(Rng.int rng (Array.length hosts)) in
      if src = dst_ep then true
      else begin
        let dst = Address_assign.address c.Testlib.assignment (fst dst_ep) (snd dst_ep) in
        let expected, _ = Verify.walk_unicast c.Testlib.net ~from:src ~dst in
        let fs = FS.create g c.Testlib.specs in
        ignore (FS.inject fs ~from:src ~dst ~bytes:120);
        FS.run fs ~slots:30_000;
        match expected with
        | Verify.Delivered d -> (
          match FS.deliveries fs with
          | [ del ] -> del.FS.at = (d.Verify.at_switch, d.Verify.out_port)
          | _ -> false)
        | Verify.Discarded _ -> FS.deliveries fs = [] && FS.discarded fs >= 1
        | Verify.Looped -> false
      end)

(* Packet simulator broadcast coverage equals the verifier's flood. *)
let packet_broadcast_matches_flood =
  QCheck.Test.make ~name:"packet-sim broadcast equals the verifier flood"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, rng = random_configured (seed + 11) ~max_n:7 in
      let g = c.Testlib.graph in
      let hosts = Array.of_list (host_eps g) in
      let src = hosts.(Rng.int rng (Array.length hosts)) in
      let expected =
        Verify.flood_broadcast c.Testlib.net ~from:src
          ~dst:Short_address.broadcast_hosts
        |> List.map (fun (d : Verify.delivery) -> (d.at_switch, d.out_port))
        |> List.sort compare
      in
      let engine, ps = make_ps c in
      let pkt =
        Packet.make ~dst:Short_address.broadcast_hosts
          ~src:(Address_assign.address c.Testlib.assignment (fst src) (snd src))
          ~typ:Packet.Client ~body:"bcast" ()
      in
      PS.send ps ~from:src pkt;
      Autonet_sim.Engine.run engine;
      let got =
        List.map (fun (d : PS.delivery) -> d.PS.at) (PS.deliveries ps)
        |> List.sort compare
      in
      got = expected)

(* The two data planes deliver unicast to the same endpoint. *)
let flit_matches_packet_sim =
  QCheck.Test.make ~name:"flit and packet simulators agree" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, rng = random_configured (seed + 21) ~max_n:6 in
      let g = c.Testlib.graph in
      let hosts = Array.of_list (host_eps g) in
      let src = hosts.(Rng.int rng (Array.length hosts)) in
      let dst_ep = hosts.(Rng.int rng (Array.length hosts)) in
      if src = dst_ep then true
      else begin
        let dst = Address_assign.address c.Testlib.assignment (fst dst_ep) (snd dst_ep) in
        let fs = FS.create g c.Testlib.specs in
        ignore (FS.inject fs ~from:src ~dst ~bytes:100);
        FS.run fs ~slots:30_000;
        let engine, ps = make_ps c in
        let pkt =
          Packet.make ~dst
            ~src:(Address_assign.address c.Testlib.assignment (fst src) (snd src))
            ~typ:Packet.Client ~body:(String.make 60 'x') ()
        in
        PS.send ps ~from:src pkt;
        Autonet_sim.Engine.run engine;
        match (FS.deliveries fs, PS.deliveries ps) with
        | [ a ], [ b ] -> a.FS.at = b.PS.at
        | [], [] -> true
        | _ -> false
      end)

(* Broadcast coverage in the flit simulator on random topologies. *)
let flit_broadcast_coverage =
  QCheck.Test.make ~name:"flit broadcast covers every other host once"
    ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, rng = random_configured (seed + 31) ~max_n:6 in
      let g = c.Testlib.graph in
      let hosts = host_eps g in
      let arr = Array.of_list hosts in
      let src = arr.(Rng.int rng (Array.length arr)) in
      let fs = FS.create g c.Testlib.specs in
      ignore (FS.inject fs ~from:src ~dst:Short_address.broadcast_hosts ~bytes:150);
      FS.run fs ~slots:60_000;
      let ds = FS.deliveries fs in
      (not (FS.deadlocked fs))
      && List.length ds = List.length hosts
      && List.length (List.sort_uniq compare (List.map (fun d -> d.FS.at) ds))
         = List.length ds)

(* Deterministic replay: two identical flit runs give identical results. *)
let test_flit_deterministic () =
  let run () =
    let c = Testlib.configure (B.attach_hosts (B.torus ~rows:2 ~cols:2 ()) ~per_switch:2) in
    let g = c.Testlib.graph in
    let hosts = host_eps g in
    let fs = FS.create g c.Testlib.specs in
    List.iteri
      (fun i src ->
        let dst_ep = List.nth hosts ((i + 3) mod List.length hosts) in
        let dst = Address_assign.address c.Testlib.assignment (fst dst_ep) (snd dst_ep) in
        FS.set_source fs src (fun ~slot -> if slot mod 997 = i then Some (dst, 300) else None))
      hosts;
    FS.run fs ~slots:30_000;
    List.map
      (fun (d : FS.delivery) -> (d.FS.packet, d.FS.at, d.FS.delivered_slot))
      (FS.deliveries fs)
  in
  let a = run () and b = run () in
  check_bool "identical traces" true (a = b);
  check_bool "nonempty" true (a <> [])

let test_network_deterministic () =
  (* Two identical control-plane runs converge at the same instant with
     identical merged logs. *)
  let run () =
    let net =
      Autonet.Network.create ~params:Autonet_autopilot.Params.fast ~seed:9L
        (B.torus ~rows:2 ~cols:3 ())
    in
    Autonet.Network.start net;
    let at = Autonet.Network.run_until_converged net in
    (at, List.length (Autonet.Network.merged_log net))
  in
  let a = run () and b = run () in
  check_bool "same convergence time and log length" true (a = b)

(* Every choice among alternative ports delivers, between every pair of
   endpoints, control processors included, on a torus whose tables do
   offer alternatives. *)
let test_verify_every_alternative () =
  let c = Testlib.configure (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2) in
  let g = c.Testlib.graph in
  check_bool "tables offer alternatives" true
    (List.exists
       (fun spec ->
         Tables.exists_entry spec ~f:(fun ~in_port:_ e ->
             (not (Tables.broadcast e)) && Port_vector.count (Tables.vector e) > 1))
       c.Testlib.specs);
  let endpoints = List.map (fun s -> (s, 0)) (Graph.switches g) @ host_eps g in
  let dsts =
    List.map
      (fun ((d, q) as ep) -> (ep, Address_assign.address c.Testlib.assignment d q))
      endpoints
  in
  match Verify.undelivered c.Testlib.net ~sources:endpoints ~dsts with
  | [] -> ()
  | ((ss, sp), (ds, dp), o) :: _ as failed ->
    Alcotest.failf "%d pairs fail, first s%d.p%d -> s%d.p%d: %a"
      (List.length failed) ss sp ds dp Verify.pp_outcome o

let () =
  Alcotest.run "crosscheck"
    [ ( "agreement",
        [ QCheck_alcotest.to_alcotest flit_matches_verify;
          QCheck_alcotest.to_alcotest packet_broadcast_matches_flood;
          QCheck_alcotest.to_alcotest flit_matches_packet_sim;
          QCheck_alcotest.to_alcotest flit_broadcast_coverage ] );
      ( "determinism",
        [ Alcotest.test_case "flit replay" `Quick test_flit_deterministic;
          Alcotest.test_case "network replay" `Quick test_network_deterministic ] );
      ( "multipath",
        [ Alcotest.test_case "every alternative delivers" `Quick
            test_verify_every_alternative ] ) ]

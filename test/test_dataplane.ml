(* Tests for the two data-plane simulators: slot-level (flit) fidelity —
   cut-through latency, flow control, FIFO sizing, the Figure 9 broadcast
   deadlock — and the packet-level approximation used for throughput. *)

open Autonet_core
open Autonet_net
module B = Autonet_topo.Builders
module FS = Autonet_dataplane.Flit_sim
module PS = Autonet_dataplane.Packet_sim
module FT = Autonet_switch.Forwarding_table
module SA = Short_address
module Time = Autonet_sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let host_eps g =
  List.map (fun (h : Graph.host_attachment) -> (h.switch, h.switch_port))
    (Graph.hosts g)

(* ------------------------------------------------------------------ *)
(* Flit simulator *)

let test_flit_unicast_delivery () =
  let c = Testlib.configure (B.attach_hosts (B.line ~n:2 ()) ~per_switch:2) in
  let hosts = host_eps c.Testlib.graph in
  let src = List.hd hosts in
  let dst_ep = List.find (fun (s, _) -> s <> fst src) hosts in
  let dst = Address_assign.address c.assignment (fst dst_ep) (snd dst_ep) in
  let fs = FS.create c.Testlib.graph c.specs in
  ignore (FS.inject fs ~from:src ~dst ~bytes:100);
  FS.run fs ~slots:2000;
  check_bool "no deadlock" false (FS.deadlocked fs);
  match FS.deliveries fs with
  | [ d ] ->
    check_bool "right place" true (d.FS.at = dst_ep);
    (* ~100 slots serialization + 2 switch transits + 3 channels. *)
    check_bool
      (Printf.sprintf "latency sane (%d slots)" (FS.latency_slots d))
      true
      (FS.latency_slots d > 100 && FS.latency_slots d < 400)
  | ds -> Alcotest.failf "expected 1 delivery, got %d" (List.length ds)

let test_flit_switch_transit_latency () =
  (* Per-switch transit = latency difference between a 2-switch and a
     3-switch path: the paper's 26-32 cycles plus cable time. *)
  let latency_on n =
    let c =
      Testlib.configure (B.attach_hosts ~dual_homed:false (B.line ~n ()) ~per_switch:1)
    in
    let hosts = host_eps c.Testlib.graph in
    let src = List.find (fun (s, _) -> s = 0) hosts in
    let dst_ep = List.find (fun (s, _) -> s = n - 1) hosts in
    let dst = Address_assign.address c.assignment (fst dst_ep) (snd dst_ep) in
    let fs = FS.create c.Testlib.graph c.specs in
    ignore (FS.inject fs ~from:src ~dst ~bytes:100);
    FS.run fs ~slots:4000;
    match FS.deliveries fs with
    | [ d ] -> FS.latency_slots d
    | _ -> Alcotest.fail "no delivery"
  in
  let transit = latency_on 3 - latency_on 2 in
  check_bool
    (Printf.sprintf "switch transit %d slots" transit)
    true
    (transit >= 20 && transit <= 60)

let test_flit_broadcast_coverage () =
  let c = Testlib.configure (B.attach_hosts (B.torus ~rows:2 ~cols:2 ()) ~per_switch:2) in
  let hosts = host_eps c.Testlib.graph in
  let src = List.hd hosts in
  let fs = FS.create c.Testlib.graph c.specs in
  ignore (FS.inject fs ~from:src ~dst:SA.broadcast_hosts ~bytes:200);
  FS.run fs ~slots:8000;
  check_bool "no deadlock" false (FS.deadlocked fs);
  let ds = FS.deliveries fs in
  check_int "coverage" (List.length hosts) (List.length ds);
  check_int "no duplicates"
    (List.length ds)
    (List.length (List.sort_uniq compare (List.map (fun d -> d.FS.at) ds)))

let test_flit_fifo_within_sizing_formula () =
  (* Two hosts on switch 0 send long streams to the same host on switch 1:
     the inter-switch link serializes them, so the loser's packet waits at
     the head of its receive FIFO while flow control stops its host.  The
     FIFO must fill past the stop threshold but stay within the paper's
     bound (1 - f) N + (S - 1) + 2 W, and must never overflow. *)
  let topo = B.attach_hosts ~dual_homed:false (B.line ~n:2 ()) ~per_switch:2 in
  let c = Testlib.configure topo in
  let g = c.Testlib.graph in
  let hosts = host_eps g in
  let senders = List.filter (fun (s, _) -> s = 0) hosts in
  let receiver = List.hd (List.filter (fun (s, _) -> s = 1) hosts) in
  let dst = Address_assign.address c.assignment (fst receiver) (snd receiver) in
  let cfg = { FS.default_config with FS.fifo_capacity = 1024 } in
  let fs = FS.create ~config:cfg g c.specs in
  List.iter
    (fun src ->
      (* back-to-back long packets *)
      for _ = 1 to 3 do
        ignore (FS.inject fs ~from:src ~dst ~bytes:1500)
      done)
    senders;
  FS.run fs ~slots:40_000;
  check_bool "no deadlock" false (FS.deadlocked fs);
  check_int "all delivered" 6 (List.length (FS.deliveries fs));
  let w =
    Channel.delay_of_length_km cfg.FS.link_length_km + FS.port_pipeline_slots
  in
  (* +small margin for framing cells (Begin) and slot phase. *)
  let bound = 512 + (Command.flow_control_period - 1) + (2 * w) + 16 in
  List.iter
    (fun (_, p) ->
      check_bool "no overflow" false (FS.fifo_overflowed fs 0 ~port:p);
      let hw = FS.fifo_high_water fs 0 ~port:p in
      check_bool (Printf.sprintf "fifo high water %d <= %d" hw bound) true
        (hw <= bound))
    senders;
  (* At least one sender's FIFO filled beyond the stop threshold: flow
     control actually engaged. *)
  check_bool "stop threshold reached" true
    (List.exists (fun (_, p) -> FS.fifo_high_water fs 0 ~port:p > 512) senders)

let figure9_scenario ~fifo ~ignore_stop =
  let topo, (a, b, cc) = B.figure9 () in
  let conf = Testlib.configure topo in
  let cfg =
    { FS.default_config with
      FS.fifo_capacity = fifo;
      broadcast_ignore_stop = ignore_stop }
  in
  let fs = FS.create ~config:cfg conf.Testlib.graph conf.Testlib.specs in
  let c_addr = Address_assign.address conf.Testlib.assignment (fst cc) (snd cc) in
  ignore (FS.inject fs ~from:a ~dst:SA.broadcast_hosts ~bytes:1500);
  FS.run fs ~slots:15;
  ignore (FS.inject fs ~from:b ~dst:c_addr ~bytes:2500);
  FS.run fs ~slots:60_000;
  fs

let test_figure9_deadlock_without_fix () =
  (* The unicast-sized FIFO (1024) with stop obeyed mid-broadcast: the
     paper's Figure 9 deadlock. *)
  let fs = figure9_scenario ~fifo:1024 ~ignore_stop:false in
  check_bool "deadlocked" true (FS.deadlocked fs)

let test_figure9_fix_resolves () =
  (* Ignore-stop plus the 4096-byte FIFO: everything delivered. *)
  let fs = figure9_scenario ~fifo:4096 ~ignore_stop:true in
  check_bool "no deadlock" false (FS.deadlocked fs);
  (* Broadcast reaches A, B and C; the long unicast reaches C. *)
  check_int "deliveries" 4 (List.length (FS.deliveries fs))

let test_figure9_small_fifo_overflows () =
  (* Ignore-stop alone, without the larger FIFO, trades deadlock for
     overflow: why the paper needed both halves of the fix. *)
  let fs = figure9_scenario ~fifo:1024 ~ignore_stop:true in
  check_bool "no deadlock" false (FS.deadlocked fs);
  let overflow_somewhere =
    List.exists
      (fun s ->
        List.exists
          (fun p -> FS.fifo_overflowed fs s ~port:p)
          (List.init 12 (fun i -> i + 1)))
      [ 0; 1; 2; 3; 4 ]
  in
  check_bool "overflowed" true overflow_somewhere

let test_flit_parallel_trunk_used () =
  (* Two links between the same switches: two simultaneous streams should
     use both members of the trunk group. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(Uid.of_int 0x10) in
  let s1 = Graph.add_switch g ~uid:(Uid.of_int 0x20) in
  let l1 = Graph.connect g (s0, 1) (s1, 1) in
  let l2 = Graph.connect g (s0, 2) (s1, 2) in
  Graph.attach_host g ~host_uid:(Uid.of_int 0xA0) ~host_port:0 (s0, 5);
  Graph.attach_host g ~host_uid:(Uid.of_int 0xA1) ~host_port:0 (s0, 6);
  Graph.attach_host g ~host_uid:(Uid.of_int 0xB0) ~host_port:0 (s1, 5);
  Graph.attach_host g ~host_uid:(Uid.of_int 0xB1) ~host_port:0 (s1, 6);
  let c = Testlib.configure { B.graph = g; name = "trunk" } in
  let fs = FS.create g c.Testlib.specs in
  let addr p = Address_assign.address c.Testlib.assignment s1 p in
  (* Saturating streams from both hosts on s0. *)
  FS.set_source fs (s0, 5) (fun ~slot:_ -> Some (addr 5, 500));
  FS.set_source fs (s0, 6) (fun ~slot:_ -> Some (addr 6, 500));
  FS.run fs ~slots:20_000;
  let b1a, _ = FS.channel_busy_slots fs l1 in
  let b2a, _ = FS.channel_busy_slots fs l2 in
  check_bool
    (Printf.sprintf "both trunk links used (%d, %d)" b1a b2a)
    true
    (b1a > 2000 && b2a > 2000)

let test_flit_sources_sustain_throughput () =
  (* A single saturating stream across one link approaches link rate. *)
  let c = Testlib.configure (B.attach_hosts ~dual_homed:false (B.line ~n:2 ()) ~per_switch:1) in
  let g = c.Testlib.graph in
  let hosts = host_eps g in
  let src = List.find (fun (s, _) -> s = 0) hosts in
  let dst_ep = List.find (fun (s, _) -> s = 1) hosts in
  let dst = Address_assign.address c.assignment (fst dst_ep) (snd dst_ep) in
  let fs = FS.create g c.specs in
  FS.set_source fs src (fun ~slot:_ -> Some (dst, 1000));
  let window = 50_000 in
  FS.run fs ~slots:window;
  let delivered_bytes =
    List.fold_left (fun acc d -> acc + d.FS.bytes) 0 (FS.deliveries fs)
  in
  (* Link rate is 1 byte/slot; expect most of the window used. *)
  check_bool
    (Printf.sprintf "throughput %d bytes in %d slots" delivered_bytes window)
    true
    (delivered_bytes > window * 8 / 10)

let test_slow_host_drops_locally () =
  (* Paper 6.2: hosts may not send stop, so an overloaded host discards in
     its controller and the congestion never backs into the network — a
     second, unrelated stream through the same switch keeps its full
     bandwidth. *)
  (* One switch, four hosts: the two streams share nothing but the
     crossbar, so the only possible bottleneck is the slow host itself. *)
  let topo = B.attach_hosts ~dual_homed:false (B.line ~n:1 ()) ~per_switch:4 in
  let c = Testlib.configure topo in
  let g = c.Testlib.graph in
  let hosts = host_eps g in
  let fast_src = List.nth hosts 0 and slow_src = List.nth hosts 1 in
  let fast_dst = List.nth hosts 2 and slow_dst = List.nth hosts 3 in
  let fs = FS.create g c.specs in
  (* The slow host drains at a tenth of link rate with a small buffer. *)
  FS.set_host_buffer fs slow_dst ~capacity_bytes:2000 ~drain_bytes_per_slot:0.1;
  FS.set_source fs slow_src
    (fun ~slot:_ -> Some (Address_assign.address c.assignment (fst slow_dst) (snd slow_dst), 1000));
  FS.set_source fs fast_src
    (fun ~slot:_ -> Some (Address_assign.address c.assignment (fst fast_dst) (snd fast_dst), 1000));
  let window = 60_000 in
  FS.run fs ~slots:window;
  check_bool "no deadlock" false (FS.deadlocked fs);
  check_bool "slow host dropped packets" true (FS.host_dropped fs > 10);
  (* The fast pair still got most of the wire. *)
  let fast_bytes =
    List.fold_left
      (fun acc (d : FS.delivery) ->
        if d.FS.at = fast_dst then acc + d.FS.bytes else acc)
      0 (FS.deliveries fs)
  in
  check_bool
    (Printf.sprintf "fast stream unaffected (%d bytes)" fast_bytes)
    true
    (fast_bytes > window / 4);
  (* And the slow stream's switch FIFO never backed up: the loss stayed at
     the host. *)
  let sender_fifo_hw = FS.fifo_high_water fs 0 ~port:(snd slow_src) in
  check_bool
    (Printf.sprintf "no backpressure into the network (fifo hw %d)"
       sender_fifo_hw)
    true
    (sender_fifo_hw < 1024)

(* ------------------------------------------------------------------ *)
(* Packet simulator *)

let make_ps c =
  let engine = Autonet_sim.Engine.create () in
  let g = c.Testlib.graph in
  let tables = Hashtbl.create 8 in
  List.iter
    (fun spec ->
      let ft = FT.create ~max_ports:(Graph.max_ports g) in
      FT.load_spec ft spec;
      Hashtbl.replace tables (Tables.switch spec) ft)
    c.Testlib.specs;
  let ps = PS.create ~engine g ~tables:(fun s -> Hashtbl.find tables s) in
  (engine, ps)

let client_packet c ~src ~dst ~bytes =
  let dst_addr = Address_assign.address c.Testlib.assignment (fst dst) (snd dst) in
  let src_addr = Address_assign.address c.Testlib.assignment (fst src) (snd src) in
  Packet.make ~dst:dst_addr ~src:src_addr ~typ:Packet.Client
    ~body:(String.make (max 0 (bytes - 40)) 'x')
    ()

let test_ps_delivery_and_latency () =
  let c = Testlib.configure (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2) in
  let engine, ps = make_ps c in
  let hosts = host_eps c.Testlib.graph in
  let src = List.hd hosts in
  let dst = List.nth hosts (List.length hosts - 1) in
  PS.send ps ~from:src (client_packet c ~src ~dst ~bytes:500);
  Autonet_sim.Engine.run engine;
  check_int "delivered" 1 (PS.delivered_count ps);
  match PS.deliveries ps with
  | [ d ] ->
    check_bool "at destination" true (d.PS.at = dst);
    let lat = PS.latency d in
    (* serialization 40us + a few switch transits. *)
    check_bool
      (Format.asprintf "latency %a" Time.pp lat)
      true
      (lat > Time.us 40 && lat < Time.us 120)
  | _ -> Alcotest.fail "one delivery expected"

let test_ps_latency_grows_with_hops () =
  let lat_for n =
    let c =
      Testlib.configure (B.attach_hosts ~dual_homed:false (B.line ~n ()) ~per_switch:1)
    in
    let engine, ps = make_ps c in
    let hosts = host_eps c.Testlib.graph in
    let src = List.find (fun (s, _) -> s = 0) hosts in
    let dst = List.find (fun (s, _) -> s = n - 1) hosts in
    PS.send ps ~from:src (client_packet c ~src ~dst ~bytes:100);
    Autonet_sim.Engine.run engine;
    match PS.deliveries ps with
    | [ d ] -> PS.latency d
    | _ -> Alcotest.fail "one delivery expected"
  in
  let l2 = lat_for 2 and l5 = lat_for 5 in
  check_bool "more hops, more latency" true (l5 > l2);
  (* Each extra switch adds roughly cut_through + propagation, not a full
     serialization (cut-through pipelining). *)
  let per_hop = Time.sub l5 l2 / 3 in
  check_bool
    (Format.asprintf "per-hop %a" Time.pp per_hop)
    true
    (per_hop > Time.us 2 && per_hop < Time.us 4)

let test_ps_parallel_pairs_full_bandwidth () =
  (* Disjoint pairs on a torus: aggregate delivered bandwidth must exceed
     a single link's bandwidth (the Autonet-vs-shared-medium headline). *)
  let c = Testlib.configure (B.attach_hosts ~dual_homed:false (B.torus ~rows:2 ~cols:2 ()) ~per_switch:2) in
  let engine, ps = make_ps c in
  let hosts = host_eps c.Testlib.graph in
  (* Pair hosts on the same switch: traffic stays local to each switch. *)
  let pairs =
    List.filter_map
      (fun s ->
        match List.filter (fun (sw, _) -> sw = s) hosts with
        | [ h1; h2 ] -> Some (h1, h2)
        | _ -> None)
      [ 0; 1; 2; 3 ]
  in
  check_int "four pairs" 4 (List.length pairs);
  let bytes = 1000 in
  let n_packets = 100 in
  List.iter
    (fun (h1, h2) ->
      for _ = 1 to n_packets do
        PS.send ps ~from:h1 (client_packet c ~src:h1 ~dst:h2 ~bytes)
      done)
    pairs;
  Autonet_sim.Engine.run engine;
  let span = Autonet_sim.Engine.now engine in
  check_int "all delivered" (4 * n_packets) (PS.delivered_count ps);
  let total_bytes = 4 * n_packets * (bytes + 40 - 40 + 40) in
  ignore total_bytes;
  let delivered_bytes =
    List.fold_left (fun acc d -> acc + d.PS.bytes) 0 (PS.deliveries ps)
  in
  let gbps = float_of_int delivered_bytes *. 8.0 /. Time.to_float_s span /. 1e6 in
  (* One link is 100 Mbit/s; four disjoint pairs should land near 400. *)
  check_bool
    (Printf.sprintf "aggregate %.0f Mbit/s" gbps)
    true
    (gbps > 250.0)

let test_ps_broadcast () =
  let c = Testlib.configure (B.attach_hosts (B.line ~n:3 ()) ~per_switch:2) in
  let engine, ps = make_ps c in
  let hosts = host_eps c.Testlib.graph in
  let src = List.hd hosts in
  let pkt =
    Packet.make ~dst:SA.broadcast_hosts
      ~src:(Address_assign.address c.Testlib.assignment (fst src) (snd src))
      ~typ:Packet.Client ~body:"hello everyone" ()
  in
  PS.send ps ~from:src pkt;
  Autonet_sim.Engine.run engine;
  (* Every host port, the sender's included (LocalNet filters by UID). *)
  check_int "all hosts" (List.length hosts) (PS.delivered_count ps)

let test_ps_cleared_tables_discard () =
  (* Packets launched against cleared tables (mid-reconfiguration) are
     discarded, not delivered. *)
  let c = Testlib.configure (B.attach_hosts (B.line ~n:2 ()) ~per_switch:2) in
  let engine, ps = make_ps c in
  let g = c.Testlib.graph in
  (* Clear switch 0's table to simulate the reconfiguration reset. *)
  let tables = Hashtbl.create 8 in
  ignore tables;
  ignore g;
  let hosts = host_eps c.Testlib.graph in
  let src = List.hd hosts in
  let dst = List.find (fun (s, _) -> s <> fst src) hosts in
  (* Recreate a ps with an empty table for switch 0. *)
  let empty = FT.create ~max_ports:12 in
  let ps2 =
    PS.create ~engine c.Testlib.graph ~tables:(fun _ -> empty)
  in
  ignore ps;
  PS.send ps2 ~from:src (client_packet c ~src ~dst ~bytes:100);
  Autonet_sim.Engine.run engine;
  check_int "discarded" 1 (PS.discarded_count ps2);
  check_int "not delivered" 0 (PS.delivered_count ps2)

(* Alternative ports that are equally early go to the lowest.  Two
   parallel links join s0 (ports 2 and 3) to s1, and s1 delivers what
   arrives on port 2 to its host and what arrives on port 3 to its
   control processor, so each delivery names the link its packet took.
   Three hosts on s0 send at once: the first packet finds both links free
   (a tie at the cut-through time), the second only port 3, and the third
   both links busy until the same instant (a later tie). *)
let test_ps_tie_takes_lowest_port () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(Uid.of_int 0x10) in
  let s1 = Graph.add_switch g ~uid:(Uid.of_int 0x20) in
  ignore (Graph.connect g (s0, 2) (s1, 2));
  ignore (Graph.connect g (s0, 3) (s1, 3));
  let srcs = [ (s0, 1); (s0, 4); (s0, 5) ] in
  List.iteri
    (fun i ep ->
      Graph.attach_host g ~host_uid:(Uid.of_int (0x100 + i)) ~host_port:0 ep)
    ((s1, 1) :: srcs);
  let dst = SA.assigned ~switch_number:2 ~port:1 in
  let table rows =
    let ft = FT.create ~max_ports:(Graph.max_ports g) in
    List.iter
      (fun (in_port, ports) ->
        Tables.set (FT.spec ft) ~in_port ~dst
          (Tables.entry ~broadcast:false (Port_vector.of_list ports)))
      rows;
    ft
  in
  let t0 = table (List.map (fun (_, p) -> (p, [ 2; 3 ])) srcs)
  and t1 = table [ (2, [ 1 ]); (3, [ 0 ]) ] in
  let engine = Autonet_sim.Engine.create () in
  let ps = PS.create ~engine g ~tables:(fun s -> if s = s0 then t0 else t1) in
  let pkt =
    Packet.make ~dst ~src:(SA.assigned ~switch_number:1 ~port:1)
      ~typ:Packet.Client ~body:(String.make 100 'x') ()
  in
  List.iter (fun src -> PS.send ps ~from:src pkt) srcs;
  Autonet_sim.Engine.run engine;
  Alcotest.(check (list (pair (pair int int) (pair int int))))
    "links taken: port 2 (tie), port 3, port 2 (tie)"
    [ ((s0, 1), (s1, 1)); ((s0, 4), (s1, 0)); ((s0, 5), (s1, 1)) ]
    (List.sort compare (List.map (fun d -> (d.PS.src, d.PS.at)) (PS.deliveries ps)))

let test_ps_host_rx_callback () =
  let c = Testlib.configure (B.attach_hosts (B.line ~n:2 ()) ~per_switch:2) in
  let engine, ps = make_ps c in
  let hosts = host_eps c.Testlib.graph in
  let src = List.hd hosts in
  let dst = List.find (fun (s, _) -> s <> fst src) hosts in
  let got = ref None in
  PS.set_host_rx ps dst (fun p -> got := Some p);
  let pkt = client_packet c ~src ~dst ~bytes:120 in
  PS.send ps ~from:src pkt;
  Autonet_sim.Engine.run engine;
  match !got with
  | Some p -> check_bool "same packet" true (Packet.equal p pkt)
  | None -> Alcotest.fail "host rx not called"

let () =
  Alcotest.run "dataplane"
    [ ( "flit",
        [ Alcotest.test_case "unicast delivery" `Quick test_flit_unicast_delivery;
          Alcotest.test_case "switch transit latency" `Quick
            test_flit_switch_transit_latency;
          Alcotest.test_case "broadcast coverage" `Quick test_flit_broadcast_coverage;
          Alcotest.test_case "fifo sizing formula" `Quick
            test_flit_fifo_within_sizing_formula;
          Alcotest.test_case "parallel trunk" `Quick test_flit_parallel_trunk_used;
          Alcotest.test_case "sustained throughput" `Quick
            test_flit_sources_sustain_throughput;
          Alcotest.test_case "slow host drops locally" `Quick
            test_slow_host_drops_locally ] );
      ( "figure9",
        [ Alcotest.test_case "deadlock without fix" `Quick
            test_figure9_deadlock_without_fix;
          Alcotest.test_case "fix resolves" `Quick test_figure9_fix_resolves;
          Alcotest.test_case "small fifo overflows" `Quick
            test_figure9_small_fifo_overflows ] );
      ( "packet_sim",
        [ Alcotest.test_case "delivery and latency" `Quick test_ps_delivery_and_latency;
          Alcotest.test_case "latency grows with hops" `Quick
            test_ps_latency_grows_with_hops;
          Alcotest.test_case "parallel pairs bandwidth" `Quick
            test_ps_parallel_pairs_full_bandwidth;
          Alcotest.test_case "broadcast" `Quick test_ps_broadcast;
          Alcotest.test_case "cleared tables discard" `Quick
            test_ps_cleared_tables_discard;
          Alcotest.test_case "host rx callback" `Quick test_ps_host_rx_callback;
          Alcotest.test_case "equally early ports take the lowest" `Quick
            test_ps_tie_takes_lowest_port ] ) ]

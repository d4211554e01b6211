(* E3: aggregate bandwidth vs number of communicating pairs — Autonet's
   headline advantage over the shared-media FDDI/Ethernet (paper 1, 3.2),
   plus the spanning-tree-only routing baseline to show the value of using
   all links.

   E4: switch data-path figures: best-case transit latency (26-32 cycles
   of 80 ns) and the ~2 M packets/s forwarding rate (paper 4.5, 5.1).

   E5: the FIFO-sizing formula N >= (S - 1 + 128.2 L) / f, and its
   broadcast extension that forces the 4096-byte FIFO (paper 6.2).

   E6: the Figure 9 broadcast deadlock and its fix (paper 6.6.6).

   E14: the broadcast storm caused by a reflecting (unterminated) link and
   its containment (paper 7).

   A2: the first-come first-considered scheduler vs strict FCFS. *)

open Autonet_net
module B = Autonet_topo.Builders
module FS = Autonet_dataplane.Flit_sim
module SM = Autonet_baseline.Shared_media
module Alt = Autonet_baseline.Alt_routing
module Traffic = Autonet_workload.Traffic
module Report = Autonet_analysis.Report
module Stats = Autonet_analysis.Stats
open Exp_common

let slot_ns = Command.slot_ns

(* ------------------------------------------------------------------ *)

let run_pairs_flit ?(config = FS.default_config) c pairs ~bytes ~warmup ~window =
  let fs = FS.create ~config c.graph c.specs in
  List.iter
    (fun (src, dst_ep) ->
      FS.set_source fs src (Traffic.saturating ~dst:(addr_of c dst_ep) ~bytes))
    pairs;
  FS.run fs ~slots:warmup;
  let t0 = FS.now_slot fs in
  FS.run fs ~slots:window;
  let delivered =
    List.fold_left
      (fun acc (d : FS.delivery) ->
        if d.FS.delivered_slot >= t0 then acc + d.FS.bytes else acc)
      0 (FS.deliveries fs)
  in
  Stats.mbps_of_bytes ~bytes:delivered ~ns:(window * slot_ns)

let e3 () =
  section "E3: aggregate bandwidth vs simultaneous pairs (paper 1, 3.2)";
  let topo = B.src_service_lan () in
  let c = configure topo in
  let tree_specs = Alt.tree_only c.graph c.tree c.assignment in
  let c_tree = { c with specs = tree_specs } in
  let hosts = Array.of_list (host_eps c.graph) in
  let rng = Autonet_sim.Rng.create ~seed:11L in
  Autonet_sim.Rng.shuffle rng hosts;
  let r =
    Report.create
      ~title:
        "SRC LAN (30 switches), saturating 1500-byte streams, disjoint pairs"
      ~columns:
        [ "pairs"; "autonet up*/down*"; "tree-only routing"; "fddi 100Mb";
          "ethernet 10Mb" ]
  in
  List.iter
    (fun n_pairs ->
      let pairs =
        List.init n_pairs (fun i -> (hosts.(2 * i), hosts.((2 * i) + 1)))
      in
      let auto = run_pairs_flit c pairs ~bytes:1500 ~warmup:5_000 ~window:25_000 in
      let tree =
        run_pairs_flit c_tree pairs ~bytes:1500 ~warmup:5_000 ~window:25_000
      in
      let fddi =
        SM.aggregate_goodput_mbps (SM.fddi ~stations:120) ~pairs:n_pairs
          ~bytes:1500
      in
      let eth =
        SM.aggregate_goodput_mbps (SM.ethernet ~stations:120) ~pairs:n_pairs
          ~bytes:1500
      in
      Report.add_row r
        [ string_of_int n_pairs; Report.cell_mbps auto; Report.cell_mbps tree;
          Report.cell_mbps fddi; Report.cell_mbps eth ])
    [ 1; 2; 4; 8; 16; 24 ];
  Report.print r

(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4: switch transit latency and forwarding rate (paper 4.5, 5.1)";
  (* Transit latency: latency difference between 3- and 2-switch lines. *)
  let latency_on n =
    let c =
      configure (B.attach_hosts ~dual_homed:false (B.line ~n ()) ~per_switch:1)
    in
    let hosts = host_eps c.graph in
    let src = List.find (fun (s, _) -> s = 0) hosts in
    let dst_ep = List.find (fun (s, _) -> s = n - 1) hosts in
    let fs = FS.create c.graph c.specs in
    ignore (FS.inject fs ~from:src ~dst:(addr_of c dst_ep) ~bytes:100);
    FS.run fs ~slots:4000;
    match FS.deliveries fs with
    | [ d ] -> FS.latency_slots d
    | _ -> failwith "E4: no delivery"
  in
  let transit_slots = latency_on 3 - latency_on 2 in
  (* The marginal hop includes one cable (~7 slots at 100 m + pipeline);
     the switch itself is the remainder. *)
  let cable = Channel.delay_of_length_km 0.1 in
  let switch_only = transit_slots - cable in
  (* Forwarding rate: 6 senders of tiny packets through one switch. *)
  let topo = B.attach_hosts ~dual_homed:false (B.line ~n:1 ()) ~per_switch:12 in
  let c = configure topo in
  let hosts = Array.of_list (host_eps c.graph) in
  let fs = FS.create c.graph c.specs in
  for i = 0 to 5 do
    FS.set_source fs
      hosts.(i)
      (Traffic.saturating ~dst:(addr_of c hosts.(6 + i)) ~bytes:10)
  done;
  let window = 60_000 in
  FS.run fs ~slots:window;
  let delivered = List.length (FS.deliveries fs) in
  let pkts_per_sec =
    float_of_int delivered /. (float_of_int (window * slot_ns) /. 1e9)
  in
  let r =
    Report.create ~title:"switch data-path figures"
      ~columns:[ "metric"; "paper"; "measured" ]
  in
  Report.add_row r
    [ "transit latency (incl. one cable)"; "26-32 cycles + cable";
      Printf.sprintf "%d slots (%.2f us)" transit_slots
        (float_of_int (transit_slots * slot_ns) /. 1e3) ];
  Report.add_row r
    [ "switch-only transit"; "26-32 cycles (2.1-2.6 us)";
      Printf.sprintf "%d slots (%.2f us)" switch_only
        (float_of_int (switch_only * slot_ns) /. 1e3) ];
  Report.add_row r
    [ "forwarding rate (tiny packets)"; "~2,000,000 pkt/s";
      Printf.sprintf "%.0f pkt/s" pkts_per_sec ];
  Report.add_row r
    [ "scheduler decision period"; "480 ns";
      Printf.sprintf "%d ns (6 slots)" (6 * slot_ns) ];
  Report.print r

(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5: FIFO sizing formula N >= (S-1 + 128.2 L)/f (paper 6.2)";
  let r =
    Report.create
      ~title:
        "contended link with a formula-sized FIFO (S=256, f=0.5): no overflow"
      ~columns:
        [ "cable"; "paper N (cable only)"; "N incl. pipeline (used)";
          "measured high water"; "overflowed?" ]
  in
  List.iter
    (fun l_km ->
      let w_sim_slots =
        Channel.delay_of_length_km l_km
        + FS.port_pipeline_slots
      in
      let formula_n =
        (* N >= (S - 1 + 2W) / f, rounded up with a small framing margin. *)
        int_of_float
          (Float.ceil (((256.0 -. 1.0) +. (2.0 *. float_of_int w_sim_slots)) /. 0.5))
        + 16
      in
      let cfg =
        { FS.default_config with
          FS.link_length_km = l_km;
          fifo_capacity = formula_n }
      in
      let topo = B.attach_hosts ~dual_homed:false (B.line ~n:2 ()) ~per_switch:2 in
      let c = configure topo in
      let hosts = host_eps c.graph in
      let senders = List.filter (fun (s, _) -> s = 0) hosts in
      let receiver = List.hd (List.filter (fun (s, _) -> s = 1) hosts) in
      let fs = FS.create ~config:cfg c.graph c.specs in
      List.iter
        (fun src ->
          for _ = 1 to 3 do
            ignore (FS.inject fs ~from:src ~dst:(addr_of c receiver) ~bytes:1500)
          done)
        senders;
      FS.run fs ~slots:200_000;
      let hw =
        List.fold_left
          (fun acc (_, p) -> max acc (FS.fifo_high_water fs 0 ~port:p))
          0 senders
      in
      let overflowed =
        List.exists (fun (_, p) -> FS.fifo_overflowed fs 0 ~port:p) senders
      in
      let w_paper = Command.slots_per_km *. l_km in
      let paper_n = (256.0 -. 1.0 +. (2.0 *. w_paper)) /. 0.5 in
      Report.add_row r
        [ Printf.sprintf "%.1f km" l_km;
          Printf.sprintf "%.0f B" paper_n;
          Printf.sprintf "%d B" formula_n;
          Printf.sprintf "%d B" hw;
          string_of_bool overflowed ])
    [ 0.1; 0.5; 1.0; 2.0 ];
  Report.print r;
  (* Broadcast variant: the stalled broadcast must fit in the FIFO. *)
  let r2 =
    Report.create
      ~title:"broadcast extension: N >= (B + S-1 + 128.2 L)/f, B = 1550"
      ~columns:[ "quantity"; "paper"; "measured" ]
  in
  let topo, (a, b, cc) = B.figure9 () in
  let c = configure topo in
  let cfg = { FS.default_config with FS.fifo_capacity = 4096 } in
  let fs = FS.create ~config:cfg c.graph c.specs in
  ignore (FS.inject fs ~from:a ~dst:Short_address.broadcast_hosts ~bytes:1550);
  FS.run fs ~slots:15;
  ignore (FS.inject fs ~from:b ~dst:(addr_of c cc) ~bytes:2500);
  FS.run fs ~slots:60_000;
  (* The broadcast stalls whole in switch W (index 1)'s FIFO from V. *)
  let hw =
    List.fold_left
      (fun acc p -> max acc (FS.fifo_high_water fs 1 ~port:p))
      0
      (List.init 12 (fun i -> i + 1))
  in
  Report.add_row r2
    [ "stalled broadcast bytes buffered"; "~1550 + slack (needs 4096 FIFO)";
      Printf.sprintf "%d B" hw ];
  Report.add_row r2
    [ "deadlock with 4096 + ignore-stop"; "none";
      string_of_bool (FS.deadlocked fs) ];
  Report.print r2

(* ------------------------------------------------------------------ *)

let figure9_scenario ~fifo ~ignore_stop =
  let topo, (a, b, cc) = B.figure9 () in
  let c = configure topo in
  let cfg =
    { FS.default_config with
      FS.fifo_capacity = fifo;
      broadcast_ignore_stop = ignore_stop }
  in
  let fs = FS.create ~config:cfg c.graph c.specs in
  ignore (FS.inject fs ~from:a ~dst:Short_address.broadcast_hosts ~bytes:1500);
  FS.run fs ~slots:15;
  ignore (FS.inject fs ~from:b ~dst:(addr_of c cc) ~bytes:2500);
  FS.run fs ~slots:60_000;
  fs

let e6 () =
  section "E6: the Figure 9 broadcast deadlock and its fix (paper 6.6.6)";
  let r =
    Report.create
      ~title:
        "broadcast from A racing a long B->C packet (V W X Y Z topology)"
      ~columns:
        [ "fifo"; "ignore stop"; "deadlocked"; "delivered"; "overflow" ]
  in
  List.iter
    (fun (fifo, ignore_stop) ->
      let fs = figure9_scenario ~fifo ~ignore_stop in
      let overflow =
        List.exists
          (fun s ->
            List.exists
              (fun p -> FS.fifo_overflowed fs s ~port:p)
              (List.init 12 (fun i -> i + 1)))
          [ 0; 1; 2; 3; 4 ]
      in
      Report.add_row r
        [ string_of_int fifo; string_of_bool ignore_stop;
          string_of_bool (FS.deadlocked fs);
          string_of_int (List.length (FS.deliveries fs));
          string_of_bool overflow ])
    [ (1024, false); (4096, false); (1024, true); (4096, true) ];
  Report.print r

(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14: broadcast storm from a reflecting link (paper 7)";
  (* The reflecting port must be on a non-root switch: the storm loop is
     host-port -> up the tree -> flood down -> same host port.  The
     spanning-tree root here is switch 0 (smallest UID), so the reflector
     goes on switch 3. *)
  let topo = B.attach_hosts ~dual_homed:false (B.torus ~rows:2 ~cols:2 ()) ~per_switch:2 in
  let c = configure topo in
  let hosts = host_eps c.graph in
  let reflector = List.find (fun (s, _) -> s = 3) hosts in
  let observer = List.find (fun (s, _) -> s = 1) hosts in
  let src = List.find (fun (s, _) -> s = 0) hosts in
  let storm_window = 60_000 in
  let copies_at_observer ~reflect =
    let fs = FS.create c.graph c.specs in
    FS.set_reflector fs reflector reflect;
    ignore (FS.inject fs ~from:src ~dst:Short_address.broadcast_hosts ~bytes:200);
    FS.run fs ~slots:storm_window;
    List.length
      (List.filter (fun (d : FS.delivery) -> d.FS.at = observer)
         (FS.deliveries fs))
  in
  let healthy = copies_at_observer ~reflect:false in
  let storming = copies_at_observer ~reflect:true in
  let window_s = float_of_int (storm_window * slot_ns) /. 1e9 in
  let r =
    Report.create
      ~title:"broadcast copies arriving at one bystander host (4.8 ms window)"
      ~columns:[ "condition"; "copies"; "copies/s" ]
  in
  Report.add_row r
    [ "healthy termination"; string_of_int healthy;
      Printf.sprintf "%.0f" (float_of_int healthy /. window_s) ];
  Report.add_row r
    [ "unterminated (reflecting) host link"; string_of_int storming;
      Printf.sprintf "%.0f" (float_of_int storming /. window_s) ];
  (* Containment: the status sampler classifies the port dead and removes
     it from the forwarding tables; modelled by ending the reflection. *)
  let fs = FS.create c.graph c.specs in
  FS.set_reflector fs reflector true;
  ignore (FS.inject fs ~from:src ~dst:Short_address.broadcast_hosts ~bytes:200);
  FS.run fs ~slots:storm_window;
  let during =
    List.length
      (List.filter (fun (d : FS.delivery) -> d.FS.at = observer)
         (FS.deliveries fs))
  in
  FS.set_reflector fs reflector false;
  FS.run fs ~slots:storm_window;
  let after =
    List.length
      (List.filter (fun (d : FS.delivery) -> d.FS.at = observer)
         (FS.deliveries fs))
    - during
  in
  Report.add_row r
    [ "after containment (port removed)"; string_of_int after;
      Printf.sprintf "%.0f" (float_of_int after /. window_s) ];
  Report.print r

(* ------------------------------------------------------------------ *)

let a2 () =
  section "A2: first-come first-considered vs strict FCFS scheduling (6.4)";
  (* One switch; d1 is busy receiving a long transfer, h2 -> d2 is free.
     Under FCFC h2's packet jumps the queue; under FCFS it waits for the
     head-of-queue request to be satisfied first. *)
  let topo = B.attach_hosts ~dual_homed:false (B.line ~n:1 ()) ~per_switch:4 in
  let c = configure topo in
  let hosts = Array.of_list (host_eps c.graph) in
  let run strict =
    let cfg = { FS.default_config with FS.strict_fifo_scheduler = strict } in
    let fs = FS.create ~config:cfg c.graph c.specs in
    (* h0 streams long packets to d2 (keeps d2's port busy). *)
    FS.set_source fs hosts.(0) (Traffic.saturating ~dst:(addr_of c hosts.(2)) ~bytes:4000);
    FS.run fs ~slots:600;
    (* h1 wants d2 as well (will block at the head of the queue), then h3
       wants h0's free port... instead: h1 requests the busy d2, h3
       requests the free d3. *)
    ignore (FS.inject fs ~from:hosts.(1) ~dst:(addr_of c hosts.(2)) ~bytes:200);
    FS.run fs ~slots:30;
    ignore (FS.inject fs ~from:hosts.(3) ~dst:(addr_of c hosts.(1)) ~bytes:200);
    FS.run fs ~slots:40_000;
    match
      List.find_opt
        (fun (d : FS.delivery) -> d.FS.src = hosts.(3))
        (FS.deliveries fs)
    with
    | Some d -> FS.latency_slots d
    | None -> -1
  in
  let fcfc = run false and fcfs = run true in
  let r =
    Report.create
      ~title:"latency of a packet to an idle port behind a blocked request"
      ~columns:[ "scheduler"; "latency (slots)"; "latency (us)" ]
  in
  Report.add_row r
    [ "first-come first-considered (Autonet)"; string_of_int fcfc;
      Printf.sprintf "%.1f" (float_of_int (fcfc * slot_ns) /. 1e3) ];
  Report.add_row r
    [ "strict FCFS"; string_of_int fcfs;
      Printf.sprintf "%.1f" (float_of_int (fcfs * slot_ns) /. 1e3) ];
  Report.print r

let run () =
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e14 ();
  a2 ()

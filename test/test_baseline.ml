(* Tests for the baseline comparison models: spanning-tree-only routing,
   unrestricted shortest-path routing, FDDI and Ethernet, plus the traffic
   generators and statistics helpers. *)

open Autonet_core
open Autonet_net
module B = Autonet_topo.Builders
module Alt = Autonet_baseline.Alt_routing
module SM = Autonet_baseline.Shared_media
module Traffic = Autonet_workload.Traffic
module Stats = Autonet_analysis.Stats
module Report = Autonet_analysis.Report

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let setup topo =
  let c = Testlib.configure topo in
  (c, c.Testlib.graph, c.Testlib.tree, c.Testlib.assignment)

(* ------------------------------------------------------------------ *)
(* Alternative routing *)

let test_tree_only_delivers_everywhere () =
  let _, g, tree, asg = setup (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2) in
  let specs = Alt.tree_only g tree asg in
  let net = Verify.make g specs in
  check_int "all pairs deliver" 0 (List.length (Verify.all_hosts_reach_all net asg))

let test_tree_only_acyclic () =
  let _, g, tree, asg = setup (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2) in
  let specs = Alt.tree_only g tree asg in
  check_bool "tree routing cannot deadlock" true
    (Deadlock.check_tables g specs = Deadlock.Acyclic)

let test_tree_only_leaves_cross_links_idle () =
  (* On a ring, tree routing never uses the one non-tree link. *)
  let _, g, tree, asg = setup (B.attach_hosts (B.ring ~n:4 ()) ~per_switch:2) in
  let specs = Alt.tree_only g tree asg in
  let cross =
    List.find (fun (l : Graph.link) -> not (Spanning_tree.is_tree_link tree l.id))
      (Graph.links g)
  in
  (* Only routed (assigned-address) entries matter: the constant one-hop
     entries legitimately name every port. *)
  let uses_cross =
    List.exists
      (fun spec ->
        let s = Tables.switch spec in
        Tables.fold spec ~init:false ~f:(fun acc ~in_port:_ ~dst e ->
            acc
            || (not (Tables.broadcast e))
               && Short_address.split dst <> None
               && List.exists
                    (fun p -> Graph.link_at g (s, p) = Some cross.Graph.id)
                    (Port_vector.to_list (Tables.vector e))))
      specs
  in
  check_bool "cross link unused" false uses_cross

let test_shortest_path_delivers_but_cycles () =
  (* Rings of four create the classic cyclic turn dependency. *)
  let _, g, tree, asg = setup (B.attach_hosts (B.torus ~rows:4 ~cols:4 ()) ~per_switch:2) in
  let specs = Alt.shortest_path g tree asg in
  let net = Verify.make g specs in
  check_int "all pairs deliver" 0 (List.length (Verify.all_hosts_reach_all net asg));
  (match Deadlock.check_tables g specs with
  | Deadlock.Cycle _ -> ()
  | Deadlock.Acyclic -> Alcotest.fail "expected cyclic dependencies on a torus")

let test_path_inflation_ordering () =
  (* shortest <= up*/down* <= tree-only on a richly connected topology. *)
  let c, g, tree, asg = setup (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2) in
  let mean specs = Option.get (Alt.mean_path_length g specs asg) in
  let sp = mean (Alt.shortest_path g tree asg) in
  let ud = mean c.Testlib.specs in
  let tr = mean (Alt.tree_only g tree asg) in
  check_bool
    (Printf.sprintf "sp %.2f <= ud %.2f <= tree %.2f" sp ud tr)
    true
    (sp <= ud +. 1e-9 && ud <= tr +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Shared media *)

let test_fddi_aggregate_capped () =
  let f = SM.fddi ~stations:50 in
  let one = SM.aggregate_goodput_mbps f ~pairs:1 ~bytes:1500 in
  let many = SM.aggregate_goodput_mbps f ~pairs:25 ~bytes:1500 in
  check_bool "bounded by medium" true (many <= SM.media_bandwidth_mbps f +. 1e-9);
  check_bool "more senders do not multiply bandwidth" true
    (many < 2.0 *. one)

let test_fddi_latency_grows_with_stations () =
  let small = SM.unloaded_latency_ns (SM.fddi ~stations:10) ~bytes:500 in
  let large = SM.unloaded_latency_ns (SM.fddi ~stations:500) ~bytes:500 in
  check_bool "ring latency scales with stations" true (large > 2 * small)

let test_ethernet_capped_at_10mbps () =
  let e = SM.ethernet ~stations:100 in
  check_bool "10 Mb/s medium" true (SM.media_bandwidth_mbps e = 10.0);
  let g = SM.aggregate_goodput_mbps e ~pairs:50 ~bytes:1500 in
  check_bool "under medium" true (g <= 10.0)

(* ------------------------------------------------------------------ *)
(* Traffic *)

let hosts8 =
  List.init 8 (fun i -> (i, 5))

let test_traffic_permutation_disjoint () =
  let rng = Autonet_sim.Rng.create ~seed:5L in
  let pairs = Traffic.choose_pairs ~rng ~hosts:hosts8 Traffic.Permutation in
  check_int "four pairs" 4 (List.length pairs);
  let members = List.concat_map (fun (a, b) -> [ a; b ]) pairs in
  check_int "all distinct" 8 (List.length (List.sort_uniq compare members))

let test_traffic_uniform_no_self () =
  let rng = Autonet_sim.Rng.create ~seed:6L in
  for _ = 1 to 20 do
    let pairs = Traffic.choose_pairs ~rng ~hosts:hosts8 Traffic.Uniform in
    check_int "one per host" 8 (List.length pairs);
    List.iter (fun (a, b) -> check_bool "no self" false (a = b)) pairs
  done

let test_traffic_hotspot () =
  let rng = Autonet_sim.Rng.create ~seed:7L in
  let pairs = Traffic.choose_pairs ~rng ~hosts:hosts8 Traffic.Hotspot in
  check_int "n-1 senders" 7 (List.length pairs);
  let dsts = List.sort_uniq compare (List.map snd pairs) in
  check_int "single victim" 1 (List.length dsts)

let test_traffic_sources () =
  let sat = Traffic.saturating ~dst:(Autonet_net.Short_address.of_int 0x20) ~bytes:100 in
  check_bool "always ready" true (sat ~slot:0 <> None && sat ~slot:999 <> None);
  let fc = Traffic.fixed_count ~dst:(Autonet_net.Short_address.of_int 0x20) ~bytes:10 ~count:2 () in
  check_bool "first" true (fc ~slot:0 <> None);
  check_bool "second" true (fc ~slot:1 <> None);
  check_bool "exhausted" true (fc ~slot:2 = None)

let test_traffic_poisson_rate () =
  let rng = Autonet_sim.Rng.create ~seed:8L in
  let src = Traffic.poisson ~rng ~dst:(Autonet_net.Short_address.of_int 0x20) ~bytes:100 ~load:0.5 () in
  let sent = ref 0 in
  for slot = 0 to 99_999 do
    if src ~slot <> None then incr sent
  done;
  (* load 0.5 with 100-byte packets: one packet per ~200 slots. *)
  check_bool (Printf.sprintf "%d packets" !sent) true (!sent > 350 && !sent < 650)

(* ------------------------------------------------------------------ *)
(* Stats / report *)

let test_stats_basics () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 0.0);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 100.0);
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 50.0);
  Alcotest.(check (float 1e-6)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mbps" 800.0 (Stats.mbps_of_bytes ~bytes:100 ~ns:1000)

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:2 [ 0.0; 1.0; 9.0; 10.0 ] in
  match h with
  | [ (_, _, c1); (_, _, c2) ] ->
    check_int "low bucket" 2 c1;
    check_int "high bucket" 2 c2
  | _ -> Alcotest.fail "two buckets expected"

let test_stats_histogram_degenerate () =
  (* Every sample equal: one zero-width bucket holding all of them, not
     [buckets] buckets with an invented 1.0 width. *)
  (match Stats.histogram ~buckets:5 [ 4.2; 4.2; 4.2 ] with
  | [ (lo, hi, c) ] ->
    Alcotest.(check (float 1e-9)) "lo" 4.2 lo;
    Alcotest.(check (float 1e-9)) "hi" 4.2 hi;
    check_int "all samples" 3 c
  | h -> Alcotest.fail (Printf.sprintf "%d buckets, expected 1" (List.length h)));
  (match Stats.histogram ~buckets:3 [ 0.0 ] with
  | [ (_, _, c) ] -> check_int "singleton" 1 c
  | h -> Alcotest.fail (Printf.sprintf "%d buckets, expected 1" (List.length h)));
  check_bool "empty still empty" true (Stats.histogram ~buckets:4 [] = [])

let test_report_render () =
  let r = Report.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Report.add_row r [ "1"; "2" ];
  Report.add_row r [ "333"; "4" ];
  let s = Report.render r in
  check_bool "title" true (String.length s > 0 && String.sub s 0 6 = "== T =");
  check_bool "aligned" true
    (List.exists (fun line -> line = "333  4 " || line = "333  4") (String.split_on_char '\n' s));
  Alcotest.check_raises "bad row"
    (Invalid_argument "Report.add_row: 1 cells, 2 columns") (fun () ->
      Report.add_row r [ "x" ])

let () =
  Alcotest.run "baseline"
    [ ( "alt_routing",
        [ Alcotest.test_case "tree delivers" `Quick test_tree_only_delivers_everywhere;
          Alcotest.test_case "tree acyclic" `Quick test_tree_only_acyclic;
          Alcotest.test_case "tree leaves cross links idle" `Quick
            test_tree_only_leaves_cross_links_idle;
          Alcotest.test_case "shortest path cycles" `Quick
            test_shortest_path_delivers_but_cycles;
          Alcotest.test_case "path inflation ordering" `Quick
            test_path_inflation_ordering ] );
      ( "shared_media",
        [ Alcotest.test_case "fddi aggregate capped" `Quick test_fddi_aggregate_capped;
          Alcotest.test_case "fddi latency scaling" `Quick
            test_fddi_latency_grows_with_stations;
          Alcotest.test_case "ethernet cap" `Quick test_ethernet_capped_at_10mbps ] );
      ( "traffic",
        [ Alcotest.test_case "permutation" `Quick test_traffic_permutation_disjoint;
          Alcotest.test_case "uniform" `Quick test_traffic_uniform_no_self;
          Alcotest.test_case "hotspot" `Quick test_traffic_hotspot;
          Alcotest.test_case "sources" `Quick test_traffic_sources;
          Alcotest.test_case "poisson rate" `Quick test_traffic_poisson_rate ] );
      ( "stats",
        [ Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "histogram degenerate" `Quick
            test_stats_histogram_degenerate;
          Alcotest.test_case "report render" `Quick test_report_render ] ) ]

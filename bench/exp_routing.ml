(* E7: up*/down* safety and cost — always deadlock-free, reaches
   everything, uses all links, with modest path inflation versus
   unrestricted shortest paths (paper 3.6, 4.2, 6.6.4).

   E13: the short-address interpretation table of paper 6.3, audited
   against the synthesized forwarding tables.

   A1: minimal-hop-only routes (the implemented choice) vs all legal
   routes (the paper's "may be quite reasonable" alternative).

   A4: alternate host ports — the availability ablation of 3.9. *)

open Autonet_core
open Autonet_net
module B = Autonet_topo.Builders
module Alt = Autonet_baseline.Alt_routing
module Report = Autonet_analysis.Report
module Rng = Autonet_sim.Rng
open Exp_common

(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7: up*/down* is deadlock-free with modest path inflation (3.6)";
  let r =
    Report.create ~title:"random connected topologies, 12 trials per size"
      ~columns:
        [ "switches"; "up*/down* acyclic"; "shortest-path cyclic";
          "inflation ud/sp"; "inflation tree/sp"; "all reachable" ]
  in
  let rng = Rng.create ~seed:2024L in
  List.iter
    (fun n ->
      let trials = 12 in
      let ud_acyclic = ref 0
      and sp_cyclic = ref 0
      and reach = ref 0
      and infl_ud = ref []
      and infl_tree = ref [] in
      for _ = 1 to trials do
        let uid_of = B.shuffled_uids rng n in
        let topo =
          B.attach_hosts
            (B.random_connected ~uid_of ~rng ~n ~extra_links:(n / 2) ())
            ~per_switch:2
        in
        let c = configure topo in
        if Deadlock.check_tables c.graph c.specs = Deadlock.Acyclic then
          incr ud_acyclic;
        let sp = Alt.shortest_path c.graph c.tree c.assignment in
        (match Deadlock.check_tables c.graph sp with
        | Deadlock.Cycle _ -> incr sp_cyclic
        | Deadlock.Acyclic -> ());
        let net = Verify.make c.graph c.specs in
        if Verify.all_hosts_reach_all net c.assignment = [] then incr reach;
        (match
           ( Alt.mean_path_length c.graph c.specs c.assignment,
             Alt.mean_path_length c.graph sp c.assignment,
             Alt.mean_path_length c.graph
               (Alt.tree_only c.graph c.tree c.assignment)
               c.assignment )
         with
        | Some ud, Some spm, Some tr when spm > 0.0 ->
          infl_ud := (ud /. spm) :: !infl_ud;
          infl_tree := (tr /. spm) :: !infl_tree
        | _ -> ())
      done;
      let mean l = Autonet_analysis.Stats.mean l in
      Report.add_row r
        [ string_of_int n;
          Printf.sprintf "%d/%d" !ud_acyclic trials;
          Printf.sprintf "%d/%d" !sp_cyclic trials;
          Printf.sprintf "%.3f" (mean !infl_ud);
          Printf.sprintf "%.3f" (mean !infl_tree);
          Printf.sprintf "%d/%d" !reach trials ])
    [ 8; 16; 32 ];
  Report.print r;
  (* All links used: every usable link appears in some forwarding entry. *)
  let c = configure (B.attach_hosts (B.src_service_lan ()) ~per_switch:0) in
  let used = Hashtbl.create 64 in
  List.iter
    (fun spec ->
      let s = Tables.switch spec in
      Tables.fold spec ~init:() ~f:(fun () ~in_port:_ ~dst:_ e ->
          for p = 0 to Port_vector.max_port do
            if Port_vector.mem p (Tables.vector e) then
              match Graph.link_at c.graph (s, p) with
              | Some id -> Hashtbl.replace used id ()
              | None -> ()
          done))
    c.specs;
  Printf.printf "links carrying traffic on the SRC LAN: %d of %d usable\n\n"
    (Hashtbl.length used)
    (Graph.link_count c.graph)

(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13: the short-address table of paper 6.3, audited";
  let topo = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let c = configure topo in
  let net = Verify.make c.graph c.specs in
  let hosts = host_eps c.graph in
  let from = List.hd hosts in
  let outcome a =
    fst (Verify.walk_unicast net ~from ~dst:(Short_address.of_int a))
  in
  let show = function
    | Verify.Delivered d ->
      Printf.sprintf "delivered at s%d.p%d" d.Verify.at_switch d.Verify.out_port
    | Verify.Discarded s -> Printf.sprintf "discarded at s%d" s
    | Verify.Looped -> "LOOPED (bug!)"
  in
  let r =
    Report.create ~title:"behaviour per address class (host on s0 sends)"
      ~columns:[ "address"; "paper semantics"; "observed" ]
  in
  Report.add_row r
    [ "0x0000"; "control processor of the local switch";
      show (outcome 0x0000) ];
  let peer_addr = addr_of c (List.nth hosts 3) in
  Report.add_row r
    [ Format.asprintf "%a" Short_address.pp peer_addr;
      "the host on the addressed switch port";
      show (outcome (Short_address.to_int peer_addr)) ];
  Report.add_row r
    [ "unused assigned"; "packet discarded"; show (outcome 0x7ff7) ];
  Report.add_row r [ "0xFFF0 (reserved)"; "packet discarded"; show (outcome 0xFFF0) ];
  Report.add_row r
    [ "0xFFFC"; "loopback from the attached switch"; show (outcome 0xFFFC) ];
  let flood a =
    let ds =
      Verify.flood_broadcast net ~from ~dst:(Short_address.of_int a)
    in
    let host_count =
      List.length (List.filter (fun (d : Verify.delivery) -> d.out_port <> 0) ds)
    in
    let cp_count =
      List.length (List.filter (fun (d : Verify.delivery) -> d.out_port = 0) ds)
    in
    Printf.sprintf "%d hosts + %d control processors" host_count cp_count
  in
  Report.add_row r
    [ "0xFFFD"; "every switch and every host"; flood 0xFFFD ];
  Report.add_row r [ "0xFFFE"; "every switch"; flood 0xFFFE ];
  Report.add_row r [ "0xFFFF"; "every host"; flood 0xFFFF ];
  Report.print r

(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1: minimal-hop routes vs all legal routes (paper 6.6.4)";
  let topo = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let minimal = configure topo in
  let all_legal = { minimal with specs = (configure ~mode:Tables.All_legal_routes topo).specs } in
  let table_entries specs =
    List.fold_left (fun acc s -> acc + Tables.entry_count s) 0 specs
  in
  (* Multipath width: mean alternative-port count over routed entries. *)
  let width specs =
    let total = ref 0 and n = ref 0 in
    List.iter
      (fun spec ->
        Tables.fold spec ~init:() ~f:(fun () ~in_port:_ ~dst e ->
            if (not (Tables.broadcast e)) && Short_address.split dst <> None
            then begin
              total := !total + Port_vector.count (Tables.vector e);
              incr n
            end))
      specs;
    float_of_int !total /. float_of_int (max 1 !n)
  in
  let mean_len specs =
    Option.value ~default:nan
      (Alt.mean_path_length minimal.graph specs minimal.assignment)
  in
  let dead specs =
    match Deadlock.check_tables minimal.graph specs with
    | Deadlock.Acyclic -> "acyclic"
    | Deadlock.Cycle _ -> "CYCLIC"
  in
  let r =
    Report.create ~title:"3x3 torus with 18 host ports"
      ~columns:
        [ "routes"; "table entries"; "mean alt ports"; "mean path"; "CDG" ]
  in
  Report.add_row r
    [ "minimal only (Autopilot)";
      string_of_int (table_entries minimal.specs);
      Printf.sprintf "%.2f" (width minimal.specs);
      Printf.sprintf "%.2f" (mean_len minimal.specs);
      dead minimal.specs ];
  Report.add_row r
    [ "all legal routes";
      string_of_int (table_entries all_legal.specs);
      Printf.sprintf "%.2f" (width all_legal.specs);
      Printf.sprintf "%.2f" (mean_len all_legal.specs);
      dead all_legal.specs ];
  Report.print r

(* ------------------------------------------------------------------ *)

let a3 () =
  section "A3: short addresses vs source routing vs UIDs (paper 3.7)";
  (* The paper's addressing trade-off, quantified on the SRC LAN: header
     bytes carried per packet, per-switch work, and whether the network can
     pick among alternative routes at forwarding time. *)
  let c = configure (B.src_service_lan ()) in
  let g = c.graph in
  let n = Graph.switch_count g in
  (* Mean and max switch-path hops over all switch pairs. *)
  let total = ref 0 and cnt = ref 0 and worst = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          if src <> dst then
            match Routes.distance c.routes ~src ~dst with
            | Some d ->
              total := !total + d;
              incr cnt;
              if d > !worst then worst := d
            | None -> ())
        (Graph.switches g))
    (Graph.switches g);
  let mean_hops = float_of_int !total /. float_of_int !cnt in
  let r =
    Report.create ~title:"addressing schemes on the 30-switch SRC LAN"
      ~columns:
        [ "scheme"; "address bytes/packet"; "per-switch work";
          "multipath at runtime" ]
  in
  Report.add_row r
    [ "short addresses (Autonet)"; "2";
      "one indexed table lookup"; "yes (alternative ports)" ];
  Report.add_row r
    [ "source routing (Nectar-style)";
      Printf.sprintf "%.1f mean / %d worst (1 B per hop + count)"
        (mean_hops +. 1.0)
        (!worst + 1);
      "pop a byte, rewrite header"; "no (fixed at the source)" ];
  Report.add_row r
    [ "48-bit UIDs (Ethernet-style)"; "6";
      Printf.sprintf "UID-keyed lookup over %d+ entries" n;
      "yes, with a much costlier lookup" ];
  Report.print r

let a4 () =
  section "A4: alternate host ports vs single-homing (paper 3.9)";
  (* For every single switch failure, how many hosts lose connectivity? *)
  let count_disconnected dual =
    let topo =
      B.attach_hosts ~dual_homed:dual (B.torus ~rows:4 ~cols:8 ()) ~per_switch:8
    in
    let g = topo.B.graph in
    let total_hosts =
      List.length
        (List.sort_uniq Uid.compare
           (List.map (fun (h : Graph.host_attachment) -> h.host_uid)
              (Graph.hosts g)))
    in
    let worst = ref 0 and sum = ref 0 in
    let switches = Graph.switches g in
    List.iter
      (fun victim ->
        (* A host survives if it has an attachment on a live switch that
           remains connected to the surviving component. *)
        let uids =
          List.sort_uniq Uid.compare
            (List.map (fun (h : Graph.host_attachment) -> h.host_uid)
               (Graph.hosts g))
        in
        let dead =
          List.length
            (List.filter
               (fun u ->
                 List.for_all
                   (fun (a : Graph.host_attachment) -> a.switch = victim)
                   (Graph.host_attachments g u))
               uids)
        in
        worst := max !worst dead;
        sum := !sum + dead)
      switches;
    (total_hosts, !worst, float_of_int !sum /. float_of_int (List.length switches))
  in
  let r =
    Report.create ~title:"hosts disconnected by a single switch failure"
      ~columns:[ "wiring"; "hosts"; "worst case"; "mean" ]
  in
  let t1, w1, m1 = count_disconnected true in
  let t2, w2, m2 = count_disconnected false in
  Report.add_row r
    [ "dual-homed (Autonet)"; string_of_int t1; string_of_int w1;
      Printf.sprintf "%.1f" m1 ];
  Report.add_row r
    [ "single-homed"; string_of_int t2; string_of_int w2;
      Printf.sprintf "%.1f" m2 ];
  Report.print r

let run () =
  e7 ();
  e13 ();
  a1 ();
  a3 ();
  a4 ()

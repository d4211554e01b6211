(* Crosscheck of the flat-array configuration fast path against the
   list-based oracles of reference.ml: on randomized topologies the two
   must produce identical spanning trees, up*/down* orientations, route
   distances / next hops, and routed forwarding-table entries.  Seeded
   through Autonet_sim.Rng so every run covers the same topologies. *)

open Autonet_core
module PV = Autonet_net.Port_vector
module Rng = Autonet_sim.Rng

let n_topologies = 110

let spec_to_list spec =
  ( Tables.switch spec,
    Tables.fold spec ~init:[] ~f:(fun acc ~in_port ~dst e ->
        ((in_port, Autonet_net.Short_address.to_int dst), e) :: acc)
    |> List.rev )

(* The crosscheck's random topology for [seed], two hosts per switch.
   Every third topology loses a random link first, so the crosscheck also
   covers adjacency-cache invalidation and disconnected ids. *)
let crosscheck_graph seed =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let g = (Testlib.random_topology rng ~max_n:9).Autonet_topo.Builders.graph in
  if seed mod 3 = 0 then begin
    let links = Graph.links g in
    let l = List.nth links (Rng.int rng (List.length links)) in
    Graph.disconnect g l.Graph.id
  end;
  g

let check_topology seed =
  let g = crosscheck_graph seed in
  let fail fmt = Alcotest.failf ("seed %d: " ^^ fmt) seed in
  (* --- Spanning tree. --- *)
  let tree_f = Spanning_tree.compute g ~member:0 in
  let tree_r = Reference.spanning_tree g ~member:0 in
  if Spanning_tree.root tree_f <> tree_r.root then fail "tree roots differ";
  if Spanning_tree.members tree_f <> tree_r.members then
    fail "tree members differ";
  List.iter
    (fun s ->
      if Spanning_tree.level tree_f s <> tree_r.levels.(s) then
        fail "level of s%d differs" s;
      if Spanning_tree.parent tree_f s <> tree_r.parents.(s) then
        fail "parent of s%d differs" s;
      if Spanning_tree.children tree_f s <> Reference.children tree_f s then
        fail "children of s%d differ" s)
    (Spanning_tree.members tree_f);
  (* --- Orientation. --- *)
  let updown_f = Updown.orient g tree_f in
  let ups_r = Reference.orientation g tree_r in
  for id = 0 to Graph.max_link_id g do
    if Updown.up_end_i updown_f id <> Reference.up_end ups_r id then
      fail "up end of link %d differs" id
  done;
  (* --- Routes. --- *)
  let routes_f = Routes.compute g tree_f updown_f in
  let routes_r = Reference.routes g tree_r ups_r in
  let n = Graph.switch_count g in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      List.iter
        (fun phase ->
          if
            Routes.distance_from routes_f ~src ~phase ~dst
            <> Reference.distance_from routes_r ~src ~phase ~dst
          then fail "distance s%d->s%d differs" src dst;
          if
            Routes.next_hops routes_f ~at:src ~phase ~dst
            <> Reference.next_hops routes_r ~at:src ~phase ~dst
          then fail "next hops s%d->s%d differ" src dst;
          if
            Routes.all_next_hops routes_f ~at:src ~phase ~dst
            <> Reference.all_next_hops routes_r ~at:src ~phase ~dst
          then fail "all next hops s%d->s%d differ" src dst)
        [ Routes.Up; Routes.Down ]
    done
  done;
  (* --- Forwarding tables, in both route modes: the switches built, and
     each spec at every routed key.  The constant and broadcast rows are
     not compared; the oracle does not render them.  Every spec's
     deadlock certification must match the entry-by-entry oracle. --- *)
  let assignment =
    Address_assign.make g
      (List.map (fun s -> (s, 1)) (Spanning_tree.members tree_f))
  in
  let cert = Deadlock.certificate g tree_f in
  let certifies what spec =
    let got = Deadlock.certifies cert g updown_f spec in
    let want = Reference.certifies g tree_f updown_f spec in
    if got <> want then
      fail "%s: s%d certifies %b, the oracle says %b" what (Tables.switch spec)
        got want;
    got
  in
  let built = ref [] in
  List.iter
    (fun mode ->
      let specs_f =
        Tables.build_all ~mode g tree_f updown_f routes_f assignment
      in
      if List.map Tables.switch specs_f <> tree_r.members then
        fail "switches built differ";
      List.iter
        (fun spec ->
          let s = Tables.switch spec in
          List.iter
            (fun ((in_port, dst), e) ->
              if Tables.lookup spec ~in_port ~dst <> e then
                fail "table spec for s%d differs" s)
            (Reference.routed_entries ~mode routes_r tree_r assignment s);
          ignore (certifies "built table" spec))
        specs_f;
      if mode = Tables.Minimal_routes then built := specs_f)
    [ Tables.Minimal_routes; Tables.All_legal_routes ];
  (* Unrestricted shortest-path tables break the up*/down* rule, so some
     of them refute. *)
  let refuted =
    List.length
      (List.filter
         (fun spec -> not (certifies "shortest-path table" spec))
         (Autonet_baseline.Alt_routing.shortest_path g tree_f assignment))
  in
  (* A copy of a built table whose page gets one refuting entry: the
     U-turn from the parent back to the parent, a down-to-up dependency.
     Once in a remote destination's page, which the build shares between
     destinations with equal next hops, and once in the page of the
     special addresses.  The original must still certify. *)
  List.iter
    (fun spec ->
      let s = Tables.switch spec in
      match
        (Spanning_tree.parent tree_f s,
         List.find_opt (( <> ) s) (Spanning_tree.members tree_f))
      with
      | Some p, Some d ->
        let u_turn = Tables.entry ~broadcast:false (PV.singleton p.my_port) in
        List.iter
          (fun (what, dst) ->
            let c = Tables.copy ~switch:s spec in
            Tables.set c ~in_port:p.my_port ~dst u_turn;
            if certifies what c then fail "%s: s%d still certifies" what s;
            if not (certifies (what ^ ", original") spec) then
              fail "%s: the original s%d no longer certifies" what s)
          [ ("u-turn in a remote page", Address_assign.address assignment d 0);
            ("u-turn in the special page", Autonet_net.Short_address.of_int 0xFFF5) ]
      | _ -> ())
    !built;
  refuted

let test_crosscheck () =
  let refuted = ref 0 in
  for seed = 1 to n_topologies do
    refuted := !refuted + check_topology seed
  done;
  if !refuted = 0 then
    Alcotest.fail "no shortest-path table refuted its certificate"

(* --- Domain-pool parallel path. --- *)

let n_parallel_topologies = 50

(* [Tables.build_all ~pool] and [Deadlock.check_tables ~pool] promise
   bit-identical results to the default one-domain path for any domain
   count; sweep pools of 1..4 domains (1 is the degenerate serial case,
   3 leaves uneven static shares, 4 oversubscribes a small machine) and
   require identical table specs, deadlock verdicts and — because the
   pool's deterministic counters promise any-domain-count identity — a
   byte-identical merged telemetry snapshot from every pool. *)
let test_parallel_crosscheck () =
  for seed = 1 to n_parallel_topologies do
    let rng = Rng.create ~seed:(Int64.of_int (1000 + seed)) in
    let topo = Testlib.random_topology rng ~max_n:11 in
    let g = topo.Autonet_topo.Builders.graph in
    let fail fmt = Alcotest.failf ("parallel seed %d: " ^^ fmt) seed in
    let tree = Spanning_tree.compute g ~member:0 in
    let updown = Updown.orient g tree in
    let routes = Routes.compute g tree updown in
    let assignment =
      Address_assign.make g
        (List.map (fun s -> (s, 1)) (Spanning_tree.members tree))
    in
    let specs_serial = Tables.build_all g tree updown routes assignment in
    let deadlock_serial = Deadlock.check_tables g specs_serial in
    if Reference.check_tables g specs_serial <> deadlock_serial then
      fail "CSR checker disagrees with the reference checker";
    let pools =
      List.map
        (fun d -> Autonet_parallel.Pool.create ~domains:d ())
        [ 1; 2; 3; 4 ]
    in
    Fun.protect
      ~finally:(fun () -> List.iter Autonet_parallel.Pool.shutdown pools)
      (fun () ->
        let rendered = ref None in
        List.iter
          (fun pool ->
            let d = Autonet_parallel.Pool.domains pool in
            Autonet_parallel.Pool.set_metrics_enabled pool true;
            let specs_p =
              Tables.build_all ~pool g tree updown routes assignment
            in
            if List.length specs_p <> List.length specs_serial then
              fail "spec counts differ with %d domains" d;
            List.iter2
              (fun a b ->
                if spec_to_list a <> spec_to_list b then
                  fail "table spec for s%d differs with %d domains"
                    (Tables.switch a) d)
              specs_p specs_serial;
            if Deadlock.check_tables ~pool g specs_p <> deadlock_serial then
              fail "deadlock result differs with %d domains" d;
            let r =
              Autonet_telemetry.Metrics.render
                (Autonet_parallel.Pool.metrics_snapshot pool)
            in
            match !rendered with
            | None -> rendered := Some r
            | Some prev ->
              if prev <> r then
                fail "merged telemetry snapshot differs with %d domains:\n%s\nvs\n%s"
                  d r prev)
          pools)
  done

(* A clockwise ring dependency: switch i forwards traffic arriving from
   switch i-1 on to switch i+1, so the channel dependency graph is one
   directed cycle through all n clockwise channels. *)
let ring_specs n =
  let g = Graph.create ~max_ports:4 () in
  for i = 0 to n - 1 do
    ignore (Graph.add_switch g ~uid:(Autonet_net.Uid.of_int (i + 1)))
  done;
  for i = 0 to n - 1 do
    ignore (Graph.connect g (i, 2) ((i + 1) mod n, 1))
  done;
  let dst = Autonet_net.Short_address.of_int 0x100 in
  let specs =
    List.init n (fun i ->
        Tables.of_entries ~switch:i
          [ ((1, dst), Tables.entry ~broadcast:false (PV.singleton 2)) ])
  in
  (g, specs)

let test_deadlock_deep_chain () =
  (* The old recursive DFS needed stack depth n here and overflowed the
     native stack somewhere past ~100k channels; the iterative DFS must
     return the full n-channel witness. *)
  let n = 150_000 in
  let g, specs = ring_specs n in
  match Deadlock.check_tables g specs with
  | Deadlock.Acyclic -> Alcotest.fail "expected the ring dependency cycle"
  | Deadlock.Cycle cs ->
    Alcotest.(check int) "cycle covers every channel" n (List.length cs);
    List.iteri
      (fun i (c : Deadlock.channel) ->
        if c.link <> i || c.from_switch <> i || c.to_switch <> (i + 1) mod n
        then
          Alcotest.failf "witness channel %d is %a" i Deadlock.pp_channel c)
      cs

let test_deadlock_witness_matches_reference () =
  (* On a chain shallow enough for the oracle's recursive checker, the
     iterative DFS must report the identical witness (every channel here
     has exactly one dependency, so adjacency order cannot differ). *)
  let g, specs = ring_specs 64 in
  let a = Deadlock.check_tables g specs in
  let b = Reference.check_tables g specs in
  if a <> b then
    Alcotest.failf "witnesses differ: %a vs %a" Deadlock.pp_result a
      Deadlock.pp_result b

(* Unrestricted shortest-path tables are cyclic on most multipath
   topologies, so they exercise the checkers' cycle branches, which
   up*/down* tables never reach.  Both checkers must give the same
   verdict, and each witness must be a real cycle; the witnesses
   themselves may differ (a channel with several dependencies lets each
   checker close a different cycle first). *)
let n_cyclic_topologies = 100

let test_deadlock_cyclic_tables () =
  let cyclic = ref 0 in
  for seed = 1 to n_cyclic_topologies do
    let rng = Rng.create ~seed:(Int64.of_int (3000 + seed)) in
    let g = (Testlib.random_topology rng ~max_n:9).Autonet_topo.Builders.graph in
    let tree = Spanning_tree.compute g ~member:0 in
    let assignment =
      Address_assign.make g
        (List.map (fun s -> (s, 1)) (Spanning_tree.members tree))
    in
    let specs = Autonet_baseline.Alt_routing.shortest_path g tree assignment in
    let fail fmt = Alcotest.failf ("cyclic seed %d: " ^^ fmt) seed in
    let port_of s link =
      List.find_opt (fun p -> Graph.link_at g (s, p) = Some link)
        (Graph.used_ports g s)
    in
    (* [c1] arrives where [c2] leaves, and some unicast entry of that
       switch forwards from [c1]'s in-port onto [c2]'s link. *)
    let depends (c1 : Deadlock.channel) (c2 : Deadlock.channel) =
      c1.to_switch = c2.from_switch
      &&
      match (port_of c1.to_switch c1.link, port_of c2.from_switch c2.link) with
      | Some in_port, Some out_port ->
        let spec = List.find (fun sp -> Tables.switch sp = c1.to_switch) specs in
        List.exists
          (fun (_, e) ->
            (not (Tables.broadcast e))
            && PV.mem out_port (Tables.vector e))
          (Tables.row spec ~in_port)
      | _ -> false
    in
    let check_witness who = function
      | [] -> fail "%s witness is empty" who
      | first :: rest as cs ->
        List.iteri
          (fun i (c1, c2) ->
            if not (depends c1 c2) then
              fail "%s witness: channel %d (%a) does not lead to %a" who i
                Deadlock.pp_channel c1 Deadlock.pp_channel c2)
          (List.combine cs (rest @ [ first ]))
    in
    match (Deadlock.check_tables g specs, Reference.check_tables g specs) with
    | Deadlock.Acyclic, Deadlock.Acyclic -> ()
    | Deadlock.Cycle a, Deadlock.Cycle b ->
      incr cyclic;
      check_witness "fast" a;
      check_witness "oracle" b
    | a, b ->
      fail "verdicts differ: %a vs %a" Deadlock.pp_result a Deadlock.pp_result
        b
  done;
  if !cyclic = 0 then Alcotest.fail "no topology produced a cyclic table set"

let test_iter_neighbors_matches_list () =
  (* The packed iterator yields exactly the neighbors list, including
     after mutations that must invalidate the cache. *)
  let rng = Rng.create ~seed:42L in
  for _ = 1 to 20 do
    let topo = Testlib.random_topology rng ~max_n:8 in
    let g = topo.Autonet_topo.Builders.graph in
    let check () =
      List.iter
        (fun s ->
          let got = ref [] in
          Graph.iter_neighbors g s (fun p l peer peer_port ->
              got := (p, l, peer, peer_port) :: !got);
          Alcotest.(check bool)
            "iter_neighbors equals neighbors" true
            (List.rev !got = Graph.neighbors g s);
          Alcotest.(check int)
            "degree equals neighbor count"
            (List.length (Graph.neighbors g s))
            (Graph.degree g s))
        (Graph.switches g)
    in
    check ();
    let links = Graph.links g in
    let l = List.nth links (Rng.int rng (List.length links)) in
    Graph.disconnect g l.Graph.id;
    check ()
  done

(* --- Incremental (delta) reconfiguration path. ---

   The contract under test: whenever [Delta.classify] declares a fault
   tree-preserving, [Delta.apply] commits *exactly* what the full epoch
   would — same routes, same forwarding tables bit for bit, same root
   deadlock verdict — at every domain count.  Structural faults must be
   refused (the caller then runs the unchanged full path), so the
   classifier only ever has to be sound, never clever. *)

(* Rebuild [g] from scratch, optionally dropping one link and/or one
   switch.  Indices are reassigned in the same order a fresh topology
   report would produce them, which is exactly what the classifier's
   UID alignment is for. *)
let rebuild_graph ?drop_link ?drop_switch ?drop_host g =
  let keep s = drop_switch <> Some s in
  let g' = Graph.create ~max_ports:(Graph.max_ports g) () in
  let map = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if keep s then
        Hashtbl.replace map s (Graph.add_switch g' ~uid:(Graph.uid g s)))
    (Graph.switches g);
  List.iter
    (fun (l : Graph.link) ->
      let sa, pa = l.a and sb, pb = l.b in
      if drop_link <> Some l.id && keep sa && keep sb then
        ignore
          (Graph.connect g' (Hashtbl.find map sa, pa) (Hashtbl.find map sb, pb)))
    (Graph.links g);
  List.iter
    (fun (att : Graph.host_attachment) ->
      if keep att.switch && drop_host <> Some (att.switch, att.switch_port) then
        Graph.attach_host g' ~host_uid:att.host_uid ~host_port:att.host_port
          (Hashtbl.find map att.switch, att.switch_port))
    (Graph.hosts g);
  g'

(* --- Host ports: one renderer. ---
   On every crosscheck topology, for every member switch and every port
   cabled to a host, in both route modes: adding the port's rows to the
   table built without its host gives the table built with it, and
   removing them from the table built with it gives the table built
   without it.  The same holds for the tables a switch loads: after
   [Forwarding_table.load_spec] of one build, the edit gives a fresh load
   of the other.  Adding a port already there, or removing one that is
   not, changes nothing, and neither edit reaches the table it copied. *)
let test_host_port_rows () =
  let edits = ref 0 in
  for seed = 1 to n_topologies do
    let g = crosscheck_graph seed in
    let fail fmt = Alcotest.failf ("host seed %d: " ^^ fmt) seed in
    let build ?(mode = Tables.Minimal_routes) g s =
      let tree = Spanning_tree.compute g ~member:0 in
      let updown = Updown.orient g tree in
      let routes = Routes.compute g tree updown in
      let assignment =
        Address_assign.make g
          (List.map (fun s -> (s, 1)) (Spanning_tree.members tree))
      in
      ( Tables.build ~mode g tree updown routes assignment s,
        Option.get (Address_assign.number assignment s) )
    in
    let max_ports = Graph.max_ports g in
    let load spec =
      let ft = Autonet_switch.Forwarding_table.create ~max_ports in
      Autonet_switch.Forwarding_table.load_spec ft spec;
      Autonet_switch.Forwarding_table.spec ft
    in
    List.iter
      (fun s ->
        List.iter
          (fun (q, mode) ->
            let g' = rebuild_graph ~drop_host:(s, q) g in
            let with_q, number = build ~mode g s in
            let without_q, number' = build ~mode g' s in
            if number <> number' then fail "s%d: numbers differ" s;
            let edited f spec =
              let c = Tables.copy ~switch:s spec in
              f c;
              c
            in
            let add = Tables.add_host_port ~number ~port:q in
            let remove = Tables.remove_host_port ~number ~port:q in
            let loaded f spec =
              let live = load spec in
              f live;
              live
            in
            incr edits;
            if not (Tables.equal_spec (edited add without_q) with_q) then
              fail "s%d.p%d: adding its rows is not the build with it" s q;
            if not (Tables.equal_spec (edited remove with_q) without_q) then
              fail "s%d.p%d: removing its rows is not the build without it" s q;
            if not (Tables.equal_spec (loaded add without_q) (load with_q))
            then fail "s%d.p%d: adding it to a loaded table is not a load" s q;
            if not (Tables.equal_spec (loaded remove with_q) (load without_q))
            then
              fail "s%d.p%d: removing it from a loaded table is not a load" s q;
            if not (Tables.equal_spec (edited add with_q) with_q) then
              fail "s%d.p%d: adding it twice changed the table" s q;
            if not (Tables.equal_spec (edited remove without_q) without_q)
            then fail "s%d.p%d: removing it twice changed the table" s q;
            if
              not
                (Tables.equal_spec without_q (fst (build ~mode g' s))
                && Tables.equal_spec with_q (fst (build ~mode g s)))
            then fail "s%d.p%d: an edit reached the copied table" s q)
          (List.concat_map
             (fun (att : Graph.host_attachment) ->
               if att.switch = s then
                 [ (att.switch_port, Tables.Minimal_routes);
                   (att.switch_port, Tables.All_legal_routes) ]
               else [])
             (Graph.hosts g)))
      (Spanning_tree.members (Spanning_tree.compute g ~member:0))
  done;
  if !edits = 0 then Alcotest.fail "no host port was edited"

type full_epoch = {
  f_graph : Graph.t;
  f_tree : Spanning_tree.t;
  f_updown : Updown.t;
  f_routes : Routes.t;
  f_asg : Address_assign.t;
  f_all : Tables.spec list;
  f_verdict : Deadlock.result;
}

let full_epoch g ~proposals =
  let c = Configuration.make g ~proposals in
  let all = Configuration.tables c in
  { f_graph = g; f_tree = c.tree; f_updown = c.updown; f_routes = c.routes;
    f_asg = c.assignment; f_all = all; f_verdict = Deadlock.check_tables g all }

(* Next-epoch proposals the way the protocol makes them: every survivor
   proposes the number it holds, newcomers propose 1. *)
let proposals_after prev g2 =
  List.map
    (fun s ->
      match Graph.switch_of_uid prev.f_graph (Graph.uid g2 s) with
      | Some os ->
        (s, Option.value ~default:1 (Address_assign.number prev.f_asg os))
      | None -> (s, 1))
    (Graph.switches g2)

let spec_for full s =
  List.find (fun sp -> Tables.switch sp = s) full.f_all

let commit_of full ~me ~root =
  Delta.commit_full ~graph:full.f_graph ~tree:full.f_tree
    ~updown:full.f_updown ~routes:full.f_routes ~assignment:full.f_asg
    ~own:(spec_for full me)
    ~all:(if root then Some full.f_all else None)

let same_verdict a b =
  match (a, b) with
  | Deadlock.Acyclic, Deadlock.Acyclic -> true
  | Deadlock.Cycle _, Deadlock.Cycle _ -> true
  | _ -> false

let check_routes_equal ~ctx r_delta r_full n =
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      List.iter
        (fun phase ->
          if
            Routes.distance_from r_delta ~src ~phase ~dst
            <> Routes.distance_from r_full ~src ~phase ~dst
          then Alcotest.failf "%s: delta distance s%d->s%d differs" ctx src dst;
          if
            Routes.next_hops r_delta ~at:src ~phase ~dst
            <> Routes.next_hops r_full ~at:src ~phase ~dst
          then Alcotest.failf "%s: delta next hops s%d->s%d differ" ctx src dst)
        [ Routes.Up; Routes.Down ]
    done
  done

(* Classify the epoch-1 -> epoch-2 transition and, when it is declared
   tree-preserving, require the delta commit to be byte-identical to the
   ground-truth full epoch — at the root (full table set + deadlock
   verdict, across 1/2/4-domain pools) and at one non-root switch (own
   table only).  Returns whether the fast path was taken. *)
let check_delta_matches_full ~seed ~what ~expect_hit full1 full2 =
  let fail fmt = Alcotest.failf ("delta seed %d: %s: " ^^ fmt) seed what in
  let g1 = full1.f_graph and g2 = full2.f_graph in
  let n = Graph.switch_count g2 in
  let root1 = Spanning_tree.root full1.f_tree in
  let me2 =
    match Graph.switch_of_uid g2 (Graph.uid g1 root1) with
    | Some s -> s
    | None -> fail "the previous root left the topology"
  in
  let prev_root = commit_of full1 ~me:root1 ~root:true in
  match
    Delta.classify ~prev:prev_root ~graph:g2 ~tree:full2.f_tree
      ~assignment:full2.f_asg ~me:me2
  with
  | Delta.Structural reason ->
    if expect_hit then
      fail "expected tree-preserving, classified structural: %s" reason;
    false
  | Delta.Tree_preserving ch ->
    let root_stats = ref None in
    let pools =
      [ None;
        Some (Autonet_parallel.Pool.create ~domains:2 ());
        Some (Autonet_parallel.Pool.create ~domains:4 ()) ]
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (function Some p -> Autonet_parallel.Pool.shutdown p | None -> ())
          pools)
      (fun () ->
        List.iter
          (fun pool ->
            let d =
              match pool with
              | Some p -> Autonet_parallel.Pool.domains p
              | None -> 1
            in
            let committed, stats =
              Delta.apply ?pool ~prev:prev_root ~graph:g2 ~tree:full2.f_tree
                ~assignment:full2.f_asg ~me:me2 ch
            in
            root_stats := Some stats;
            if
              spec_to_list committed.Delta.c_own
              <> spec_to_list (spec_for full2 me2)
            then fail "delta own table differs (%d domains)" d;
            check_routes_equal
              ~ctx:(Printf.sprintf "delta seed %d: %s (%d domains)" seed what d)
              committed.Delta.c_routes full2.f_routes n;
            (match committed.Delta.c_all with
            | None -> fail "root delta kept no table set (%d domains)" d
            | Some arr ->
              List.iter
                (fun sp ->
                  let s = Tables.switch sp in
                  if spec_to_list arr.(s) <> spec_to_list sp then
                    fail "delta table for s%d differs (%d domains)" s d)
                full2.f_all);
            match stats.Delta.st_verdict with
            | None -> fail "root delta produced no verdict (%d domains)" d
            | Some v ->
              if not (same_verdict v full2.f_verdict) then
                fail "delta deadlock verdict differs (%d domains)" d)
          pools);
    (* The non-root side: classification is per-switch, and only the own
       table is committed (no table set, no verdict). *)
    (match
       List.find_opt
         (fun s ->
           s <> me2 && Graph.switch_of_uid g1 (Graph.uid g2 s) <> None)
         (List.rev (Spanning_tree.members full2.f_tree))
     with
    | None -> ()
    | Some s2 -> (
      let s1 = Option.get (Graph.switch_of_uid g1 (Graph.uid g2 s2)) in
      let prev_nr = commit_of full1 ~me:s1 ~root:false in
      match
        Delta.classify ~prev:prev_nr ~graph:g2 ~tree:full2.f_tree
          ~assignment:full2.f_asg ~me:s2
      with
      | Delta.Structural reason ->
        fail "non-root classified structural after root hit: %s" reason
      | Delta.Tree_preserving ch_nr ->
        let committed, stats =
          Delta.apply ~prev:prev_nr ~graph:g2 ~tree:full2.f_tree
            ~assignment:full2.f_asg ~me:s2 ch_nr
        in
        if
          spec_to_list committed.Delta.c_own
          <> spec_to_list (spec_for full2 s2)
        then fail "non-root delta own table differs";
        if stats.Delta.st_verdict <> None then
          fail "non-root delta produced a verdict";
        (* The root-shaped run tells every non-root switch what its own
           run would have reported. *)
        let derived = Delta.non_root_stats ch (Option.get !root_stats) s2 in
        if
          ( derived.st_rebuilt, derived.st_patched, derived.st_reused,
            derived.st_dests, derived.st_deadlock_full, derived.st_verdict )
          <> ( stats.st_rebuilt, stats.st_patched, stats.st_reused,
               stats.st_dests, stats.st_deadlock_full, stats.st_verdict )
        then fail "non_root_stats differs from the non-root apply"));
    true

(* A root-shaped apply from a previous commit without a certificate may
   not take the reused tables on trust: one of them here carries a
   down-to-up U-turn, which no certificate admits.  The result may claim
   a certificate only if every one of its tables certifies under it, and
   its verdict must be the full checker's. *)
let test_uncertified_prev_recertifies () =
  let check_bool = Alcotest.(check bool) in
  let g = rebuild_graph (Autonet_topo.Builders.torus ~rows:3 ~cols:3 ()).graph in
  let full =
    full_epoch g ~proposals:(List.map (fun s -> (s, 1)) (Graph.switches g))
  in
  let root = Spanning_tree.root full.f_tree in
  let prev = commit_of full ~me:root ~root:true in
  let all = Option.get prev.Delta.c_all in
  let s = if root = 0 then 1 else 0 in
  let pp = (Option.get (Spanning_tree.parent full.f_tree s)).Spanning_tree.my_port in
  let poisoned = Tables.copy ~switch:s all.(s) in
  Tables.set poisoned ~in_port:pp
    ~dst:(Address_assign.address full.f_asg s 0)
    (Tables.entry ~broadcast:false (PV.singleton pp));
  let cert = Deadlock.certificate g full.f_tree in
  check_bool "the U-turn does not certify" false
    (Deadlock.certifies cert g full.f_updown poisoned);
  let all' = Array.copy all in
  all'.(s) <- poisoned;
  let prev = { prev with Delta.c_all = Some all'; c_cert = None } in
  match
    Delta.classify ~prev ~graph:g ~tree:full.f_tree ~assignment:full.f_asg
      ~me:s
  with
  | Delta.Structural reason -> Alcotest.failf "same topology structural: %s" reason
  | Delta.Tree_preserving ch ->
    let c, st =
      Delta.apply ~prev ~graph:g ~tree:full.f_tree ~assignment:full.f_asg
        ~me:root ch
    in
    let tables = Option.get c.Delta.c_all in
    check_bool "the poisoned table was reused" true (tables.(s) == poisoned);
    (match c.Delta.c_cert with
    | None -> ()
    | Some cert ->
      check_bool "a claimed certificate covers every table" true
        (Array.for_all (Deadlock.certifies cert g full.f_updown) tables));
    check_bool "the verdict is the full checker's" true
      (same_verdict (Option.get st.Delta.st_verdict)
         (Deadlock.check_tables g (Array.to_list tables)))

let tree_link_ids full =
  List.filter_map
    (fun s ->
      match Spanning_tree.parent full.f_tree s with
      | Some p -> Graph.link_at full.f_graph (s, p.Spanning_tree.my_port)
      | None -> None)
    (Spanning_tree.members full.f_tree)

let delta_hits = ref 0

let run_delta_seed seed =
  let rng = Rng.create ~seed:(Int64.of_int (7000 + seed)) in
  let topo = Testlib.random_topology rng ~max_n:9 in
  let g1 = rebuild_graph topo.Autonet_topo.Builders.graph in
  let connected g =
    List.length (Spanning_tree.members (Spanning_tree.compute g ~member:0))
    = Graph.switch_count g
  in
  (* The delta contract is about a previously *configured* network, so a
     disconnected sample is out of scope for this property. *)
  if connected g1 then begin
    let full1 =
      full_epoch g1 ~proposals:(List.map (fun s -> (s, 1)) (Graph.switches g1))
    in
    let second prev g2 = full_epoch g2 ~proposals:(proposals_after prev g2) in
    let case what ~expect_hit full1 full2 =
      if check_delta_matches_full ~seed ~what ~expect_hit full1 full2 then
        incr delta_hits
    in
    (* A non-tree link dies (must take the fast path), then comes back
       (the tree may legitimately change, so the classifier decides). *)
    let tl = tree_link_ids full1 in
    let non_tree =
      List.filter
        (fun (l : Graph.link) ->
          fst l.a <> fst l.b && not (List.mem l.id tl))
        (Graph.links g1)
    in
    (match non_tree with
    | [] -> ()
    | ls ->
      let l = List.nth ls (Rng.int rng (List.length ls)) in
      let g2 = rebuild_graph ~drop_link:l.Graph.id g1 in
      case "non-tree link down" ~expect_hit:true full1 (second full1 g2);
      let full1' = second full1 g2 in
      let g3 = rebuild_graph g1 in
      case "link up" ~expect_hit:false full1' (second full1' g3));
    (* A leaf subtree is severed (must take the fast path), then
       rejoins. *)
    let leaves =
      List.filter
        (fun s ->
          s <> Spanning_tree.root full1.f_tree
          && Spanning_tree.children full1.f_tree s = [])
        (Spanning_tree.members full1.f_tree)
    in
    match leaves with
    | [] -> ()
    | ls ->
      let x = List.nth ls (Rng.int rng (List.length ls)) in
      let g2 = rebuild_graph ~drop_switch:x g1 in
      case "leaf severed" ~expect_hit:true full1 (second full1 g2);
      let full1' = second full1 g2 in
      let g3 = rebuild_graph g1 in
      case "leaf rejoined" ~expect_hit:false full1' (second full1' g3)
  end

let n_delta_topologies = 40

let delta_qcheck =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "delta commit is byte-identical to the full epoch (%d random \
          topologies x faults x {1,2,4} domains)"
         n_delta_topologies)
    ~count:n_delta_topologies
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_delta_seed seed;
      true)

let test_delta_exercised () =
  if !delta_hits = 0 then
    Alcotest.fail "the delta property run never took the fast path"

(* Structural faults must be refused: the classifier's soundness is what
   the whole fast path's correctness rests on. *)
let test_delta_structural () =
  (* Deterministically find a connected sample. *)
  let rec sample seed =
    let rng = Rng.create ~seed:(Int64.of_int seed) in
    let topo = Testlib.random_topology rng ~max_n:9 in
    let g = rebuild_graph topo.Autonet_topo.Builders.graph in
    if
      List.length (Spanning_tree.members (Spanning_tree.compute g ~member:0))
      = Graph.switch_count g
    then g
    else sample (seed + 1)
  in
  let g1 = sample 4242 in
  let full1 =
    full_epoch g1 ~proposals:(List.map (fun s -> (s, 1)) (Graph.switches g1))
  in
  let root1 = Spanning_tree.root full1.f_tree in
  let prev = commit_of full1 ~me:root1 ~root:true in
  let expect_structural what g2 me_uid =
    let tree2 = Spanning_tree.compute g2 ~member:0 in
    let asg2 = Address_assign.make g2 (proposals_after full1 g2) in
    let me2 = Option.get (Graph.switch_of_uid g2 me_uid) in
    match
      Delta.classify ~prev ~graph:g2 ~tree:tree2 ~assignment:asg2 ~me:me2
    with
    | Delta.Structural _ -> ()
    | Delta.Tree_preserving _ ->
      Alcotest.failf "%s: expected a structural classification" what
  in
  (* Cutting a tree link re-parents a subtree (or splits the graph). *)
  (match tree_link_ids full1 with
  | l :: _ ->
    expect_structural "tree link cut"
      (rebuild_graph ~drop_link:l g1)
      (Graph.uid g1 root1)
  | [] -> Alcotest.fail "sample has no tree links");
  (* Removing the root changes the root UID for every survivor. *)
  let survivor = List.find (fun s -> s <> root1) (Graph.switches g1) in
  expect_structural "root removed"
    (rebuild_graph ~drop_switch:root1 g1)
    (Graph.uid g1 survivor)

(* An address-stable tree rotation must still classify Structural.  On
   the line 0-1-2-3 the tree is the chain itself; adding link 3-0 closes
   the ring and BFS re-parents switch 3 from 2 to the root.  Every
   switch keeps its short address (survivors repropose what they hold),
   so a classifier that only compared assignments would wrongly take the
   fast path and commit tables routed over a stale tree. *)
let test_delta_rotation_structural () =
  let line n extra =
    let g = Graph.create ~max_ports:4 () in
    let sw =
      List.init n (fun i ->
          Graph.add_switch g ~uid:(Autonet_net.Uid.of_int (100 + i)))
    in
    List.iteri
      (fun i s ->
        if i + 1 < n then
          ignore (Graph.connect g (s, 2) (List.nth sw (i + 1), 1)))
      sw;
    if extra then ignore (Graph.connect g (List.nth sw (n - 1), 3) (List.nth sw 0, 3));
    g
  in
  let g1 = line 4 false in
  let full1 =
    full_epoch g1 ~proposals:(List.map (fun s -> (s, 1)) (Graph.switches g1))
  in
  let g2 = line 4 true in
  let tree2 = Spanning_tree.compute g2 ~member:0 in
  let asg2 = Address_assign.make g2 (proposals_after full1 g2) in
  (* Premise: the rotation really is address-stable and really rotates. *)
  List.iter
    (fun s ->
      Alcotest.(check (option int))
        (Printf.sprintf "s%d keeps its address" s)
        (Address_assign.number full1.f_asg s)
        (Address_assign.number asg2 s))
    (Graph.switches g2);
  let parent_of tree s =
    Option.map
      (fun p -> p.Spanning_tree.parent_switch)
      (Spanning_tree.parent tree s)
  in
  Alcotest.(check bool) "switch 3 re-parented" true
    (parent_of full1.f_tree 3 <> parent_of tree2 3);
  let root1 = Spanning_tree.root full1.f_tree in
  let prev = commit_of full1 ~me:root1 ~root:true in
  match Delta.classify ~prev ~graph:g2 ~tree:tree2 ~assignment:asg2 ~me:root1 with
  | Delta.Structural _ -> ()
  | Delta.Tree_preserving _ ->
    Alcotest.fail "address-stable rotation took the fast path"

let test_delta_knob () =
  let with_env v f =
    Unix.putenv "AUTONET_DELTA" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "AUTONET_DELTA" "") f
  in
  List.iter
    (fun v ->
      with_env v (fun () ->
          Alcotest.(check bool) (v ^ " disables") false (Delta.enabled ())))
    [ "0"; "false"; "off"; "no" ];
  List.iter
    (fun v ->
      with_env v (fun () ->
          Alcotest.(check bool) (v ^ " leaves it on") true (Delta.enabled ())))
    [ "1"; "on"; "" ]

let () =
  Alcotest.run "fastpath"
    [ ( "crosscheck",
        [ Alcotest.test_case
            (Printf.sprintf "fast path equals reference on %d random topologies"
               n_topologies)
            `Quick test_crosscheck ] );
      ( "parallel",
        [ Alcotest.test_case
            (Printf.sprintf
               "pool path equals serial on %d random topologies x {1,2,3,4} \
                domains"
               n_parallel_topologies)
            `Quick test_parallel_crosscheck ] );
      ( "deadlock",
        [ Alcotest.test_case "iterative DFS survives a 150k-channel cycle"
            `Quick test_deadlock_deep_chain;
          Alcotest.test_case "cycle witness matches the reference checker"
            `Quick test_deadlock_witness_matches_reference;
          Alcotest.test_case
            (Printf.sprintf
               "checkers agree on shortest-path tables of %d random \
                topologies, with real witnesses"
               n_cyclic_topologies)
            `Quick test_deadlock_cyclic_tables ] );
      ( "graph",
        [ Alcotest.test_case "iter_neighbors matches the list API" `Quick
            test_iter_neighbors_matches_list ] );
      ( "host ports",
        [ Alcotest.test_case
            (Printf.sprintf
               "added and removed rows equal the builds with and without \
                the host on %d random topologies"
               n_topologies)
            `Quick test_host_port_rows ] );
      ( "delta",
        [ QCheck_alcotest.to_alcotest delta_qcheck;
          Alcotest.test_case "the property run took the fast path" `Quick
            test_delta_exercised;
          Alcotest.test_case "structural faults fall back" `Quick
            test_delta_structural;
          Alcotest.test_case "address-stable rotation is structural" `Quick
            test_delta_rotation_structural;
          Alcotest.test_case "AUTONET_DELTA knob" `Quick test_delta_knob;
          Alcotest.test_case "uncertified predecessor is re-certified" `Quick
            test_uncertified_prev_recertifies ] ) ]

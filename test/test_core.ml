(* Tests for the pure reconfiguration algorithms: topology graphs, spanning
   tree, up*/down* orientation, route computation, forwarding-table
   synthesis, deadlock analysis, address assignment and topology reports. *)

open Autonet_net
open Autonet_core
module B = Autonet_topo.Builders

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let uid = Uid.of_int

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basics () =
  let g = Graph.create () in
  let a = Graph.add_switch g ~uid:(uid 10) in
  let b = Graph.add_switch g ~uid:(uid 20) in
  check_int "count" 2 (Graph.switch_count g);
  let l = Graph.connect g (a, 1) (b, 3) in
  check_bool "link at a" true (Graph.link_at g (a, 1) = Some l);
  check_bool "link at b" true (Graph.link_at g (b, 3) = Some l);
  check_bool "free port" true (Graph.free_port g a = Some 2);
  (match Graph.neighbors g a with
  | [ (1, l', peer, 3) ] ->
    check_int "peer" b peer;
    check_int "link id" l l'
  | _ -> Alcotest.fail "neighbors of a");
  Graph.disconnect g l;
  check_bool "disconnected" true (Graph.link_at g (a, 1) = None);
  check_int "no links" 0 (Graph.link_count g)

let test_graph_port_conflicts () =
  let g = Graph.create () in
  let a = Graph.add_switch g ~uid:(uid 1) in
  let b = Graph.add_switch g ~uid:(uid 2) in
  ignore (Graph.connect g (a, 1) (b, 1));
  Alcotest.check_raises "port in use"
    (Invalid_argument "Graph: port 1 of switch 0 is in use") (fun () ->
      ignore (Graph.connect g (a, 1) (b, 2)));
  Alcotest.check_raises "port 0 refused"
    (Invalid_argument "Graph: port 0 out of range on switch 0") (fun () ->
      ignore (Graph.connect g (a, 0) (b, 2)));
  Alcotest.check_raises "port 13 refused"
    (Invalid_argument "Graph: port 13 out of range on switch 0") (fun () ->
      ignore (Graph.connect g (a, 13) (b, 2)))

let test_graph_duplicate_uid () =
  let g = Graph.create () in
  ignore (Graph.add_switch g ~uid:(uid 7));
  Alcotest.check_raises "duplicate"
    (Invalid_argument
       (Format.asprintf "Graph.add_switch: duplicate UID %a" Uid.pp (uid 7)))
    (fun () -> ignore (Graph.add_switch g ~uid:(uid 7)))

let test_graph_loop_link () =
  let g = Graph.create () in
  let a = Graph.add_switch g ~uid:(uid 1) in
  let l = Graph.connect g (a, 1) (a, 2) in
  (match Graph.link g l with
  | Some link -> check_bool "loop" true (Graph.is_loop link)
  | None -> Alcotest.fail "missing link");
  (* Loop links do not appear among neighbors. *)
  check_bool "no neighbors" true (Graph.neighbors g a = [])

let test_graph_hosts () =
  let g = Graph.create () in
  let a = Graph.add_switch g ~uid:(uid 1) in
  let b = Graph.add_switch g ~uid:(uid 2) in
  Graph.attach_host g ~host_uid:(uid 0x99) ~host_port:0 (a, 4);
  Graph.attach_host g ~host_uid:(uid 0x99) ~host_port:1 (b, 4);
  (match Graph.host_at g (a, 4) with
  | Some h ->
    check_bool "uid" true (Uid.equal h.host_uid (uid 0x99));
    check_int "host port" 0 h.host_port
  | None -> Alcotest.fail "no host");
  check_int "attachments" 2 (List.length (Graph.host_attachments g (uid 0x99)));
  check_int "all hosts" 2 (List.length (Graph.hosts g))

let test_graph_components () =
  let g = Graph.create () in
  let a = Graph.add_switch g ~uid:(uid 1) in
  let b = Graph.add_switch g ~uid:(uid 2) in
  let c = Graph.add_switch g ~uid:(uid 3) in
  let d = Graph.add_switch g ~uid:(uid 4) in
  ignore (Graph.connect g (a, 1) (b, 1));
  ignore (Graph.connect g (c, 1) (d, 1));
  Alcotest.(check (list (list int))) "components" [ [ 0; 1 ]; [ 2; 3 ] ]
    (Graph.components g)

let test_graph_copy_isolated () =
  let g = Graph.create () in
  let a = Graph.add_switch g ~uid:(uid 1) in
  let b = Graph.add_switch g ~uid:(uid 2) in
  let l = Graph.connect g (a, 1) (b, 1) in
  let g' = Graph.copy g in
  Graph.disconnect g' l;
  check_bool "original intact" true (Graph.link_at g (a, 1) = Some l);
  check_bool "copy changed" true (Graph.link_at g' (a, 1) = None)

(* ------------------------------------------------------------------ *)
(* Spanning tree *)

let test_tree_line () =
  let t = B.line ~n:5 () in
  let tree = Spanning_tree.compute t.graph ~member:0 in
  (* Default UIDs ascend with the index, so switch 0 is the root. *)
  check_int "root" 0 (Spanning_tree.root tree);
  List.iteri
    (fun i s -> check_int "level" i (Spanning_tree.level tree s))
    (Spanning_tree.members tree);
  check_int "depth" 4 (Spanning_tree.depth tree)

let test_tree_root_is_min_uid () =
  (* Permute UIDs: the root must follow the smallest UID. *)
  let uid_of i = uid (100 - (10 * i)) in
  let t = B.line ~uid_of ~n:5 () in
  let tree = Spanning_tree.compute t.graph ~member:0 in
  check_int "root is switch 4" 4 (Spanning_tree.root tree);
  check_int "level of 0" 4 (Spanning_tree.level tree 0)

let test_tree_parent_tie_break_uid () =
  (* Diamond: 0 at the top, 1 and 2 in the middle, 3 at the bottom.  Both
     1 and 2 are level-1 candidates for 3's parent; UID of 1 < UID of 2 so
     1 wins. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 10) in
  let s1 = Graph.add_switch g ~uid:(uid 20) in
  let s2 = Graph.add_switch g ~uid:(uid 30) in
  let s3 = Graph.add_switch g ~uid:(uid 40) in
  ignore (Graph.connect g (s0, 1) (s1, 1));
  ignore (Graph.connect g (s0, 2) (s2, 1));
  ignore (Graph.connect g (s1, 2) (s3, 1));
  ignore (Graph.connect g (s2, 2) (s3, 2));
  let tree = Spanning_tree.compute g ~member:s0 in
  check_int "root" s0 (Spanning_tree.root tree);
  (match Spanning_tree.parent tree s3 with
  | Some p -> check_int "parent of 3" s1 p.parent_switch
  | None -> Alcotest.fail "s3 has no parent")

let test_tree_parent_tie_break_port () =
  (* Two parallel links to the same parent: the lower child-side port
     wins. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 10) in
  let s1 = Graph.add_switch g ~uid:(uid 20) in
  ignore (Graph.connect g (s0, 5) (s1, 7));
  ignore (Graph.connect g (s0, 2) (s1, 3));
  let tree = Spanning_tree.compute g ~member:s0 in
  match Spanning_tree.parent tree s1 with
  | Some p ->
    check_int "child port" 3 p.my_port;
    check_int "parent port" 2 p.parent_port
  | None -> Alcotest.fail "no parent"

let test_tree_children () =
  let t = B.star ~leaves:3 () in
  let tree = Spanning_tree.compute t.graph ~member:0 in
  check_int "root" 0 (Spanning_tree.root tree);
  let kids = Spanning_tree.children tree 0 in
  check_int "children" 3 (List.length kids);
  List.iter (fun (_, _, c) -> check_int "level" 1 (Spanning_tree.level tree c)) kids

(* [children] returns the list [compute] stored: asking for every
   member's children on the 64-switch torus allocates nothing, where
   re-sorting the members per call allocated words in proportion to
   them. *)
let test_tree_children_allocate_nothing () =
  let t = B.torus ~rows:8 ~cols:8 () in
  let tree = Spanning_tree.compute t.graph ~member:0 in
  let members = Array.of_list (Spanning_tree.members tree) in
  let ask () =
    for i = 0 to Array.length members - 1 do
      ignore (Sys.opaque_identity (Spanning_tree.children tree members.(i)))
    done
  in
  ask ();
  let w0 = Gc.minor_words () in
  ask ();
  let words = Gc.minor_words () -. w0 in
  Printf.printf
    "spanning tree: children of all %d members allocate %.0f minor words \
     (bar 0, OCaml %s)\n"
    (Array.length members) words Sys.ocaml_version;
  if words > 0. then
    Alcotest.failf
      "spanning tree: children of all %d members allocate %.0f minor words \
       (bar 0, OCaml %s)"
      (Array.length members) words Sys.ocaml_version

let test_tree_position_ordering () =
  let open Spanning_tree.Position in
  let p ?(root = 1) ?(level = 1) ?(parent = 1) ?(port = 1) () =
    { root = uid root; level; parent = uid parent; parent_port = port }
  in
  check_bool "smaller root wins" true (better (p ~root:1 ()) (p ~root:2 ~level:0 ()));
  check_bool "shorter path wins" true (better (p ~level:1 ()) (p ~level:2 ()));
  check_bool "smaller parent wins" true (better (p ~parent:3 ()) (p ~parent:4 ()));
  check_bool "lower port wins" true (better (p ~port:2 ()) (p ~port:5 ()));
  check_bool "irreflexive" false (better (p ()) (p ()))

let test_tree_matches_positions () =
  (* The reference tree's positions must be consistent: every non-root
     switch's position is the best candidate offered by its neighbors. *)
  let rng = Autonet_sim.Rng.create ~seed:1234L in
  for _ = 1 to 25 do
    let t = Testlib.random_topology rng ~max_n:12 in
    let g = t.B.graph in
    let tree = Spanning_tree.compute g ~member:0 in
    List.iter
      (fun s ->
        if s <> Spanning_tree.root tree then begin
          let my_pos = Spanning_tree.position tree g s in
          (* Candidates from every neighbor's stable position. *)
          let best =
            List.fold_left
              (fun acc (my_port, _, peer, _) ->
                let peer_pos = Spanning_tree.position tree g peer in
                let cand =
                  { Spanning_tree.Position.root = peer_pos.root;
                    level = peer_pos.level + 1;
                    parent = Graph.uid g peer;
                    parent_port = my_port }
                in
                match acc with
                | None -> Some cand
                | Some cur ->
                  if Spanning_tree.Position.better cand cur then Some cand
                  else acc)
              None (Graph.neighbors g s)
          in
          match best with
          | Some b ->
            if not (Spanning_tree.Position.equal b my_pos) then
              Alcotest.failf "s%d position %a but best candidate %a" s
                Spanning_tree.Position.pp my_pos Spanning_tree.Position.pp b
          | None -> Alcotest.fail "isolated member"
        end)
      (Spanning_tree.members tree)
  done

(* ------------------------------------------------------------------ *)
(* Up*/down* orientation *)

let test_updown_tree_links_point_up () =
  let t = B.torus ~rows:3 ~cols:3 () in
  let g = t.B.graph in
  let tree = Spanning_tree.compute g ~member:0 in
  let ud = Updown.orient g tree in
  (* Every tree link's up end is the parent. *)
  List.iter
    (fun s ->
      match Spanning_tree.parent tree s with
      | None -> ()
      | Some p ->
        check_bool "up end is parent" true
          (Updown.up_end ud p.link = Some p.parent_switch))
    (Spanning_tree.members tree)

let test_updown_tie_break_uid () =
  (* Cross link between two same-level switches: up end has smaller UID. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 10) in
  let s1 = Graph.add_switch g ~uid:(uid 30) in
  let s2 = Graph.add_switch g ~uid:(uid 20) in
  ignore (Graph.connect g (s0, 1) (s1, 1));
  ignore (Graph.connect g (s0, 2) (s2, 1));
  let cross = Graph.connect g (s1, 2) (s2, 2) in
  let tree = Spanning_tree.compute g ~member:s0 in
  let ud = Updown.orient g tree in
  check_bool "cross link up end is lower uid" true
    (Updown.up_end ud cross = Some s2)

let test_updown_loop_excluded () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 1) in
  let s1 = Graph.add_switch g ~uid:(uid 2) in
  ignore (Graph.connect g (s0, 1) (s1, 1));
  let loop = Graph.connect g (s1, 2) (s1, 3) in
  let tree = Spanning_tree.compute g ~member:s0 in
  let ud = Updown.orient g tree in
  check_bool "loop excluded" false (Updown.usable ud loop)

let updown_acyclic_qcheck =
  QCheck.Test.make ~name:"orientation is always acyclic" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 1)) in
      let t = Testlib.random_topology rng ~max_n:16 in
      let g = t.B.graph in
      let tree = Spanning_tree.compute g ~member:0 in
      let ud = Updown.orient g tree in
      Updown.verify_acyclic g ud)

(* ------------------------------------------------------------------ *)
(* Routes *)

let test_routes_line_distance () =
  let c = Testlib.configure (B.line ~n:5 ()) in
  check_bool "0 to 4" true (Routes.distance c.routes ~src:0 ~dst:4 = Some 4);
  check_bool "4 to 0" true (Routes.distance c.routes ~src:4 ~dst:0 = Some 4);
  check_bool "self" true (Routes.distance c.routes ~src:2 ~dst:2 = Some 0)

let test_routes_ring_multipath () =
  (* On a 4-ring the legal minimal route between opposite switches has two
     hops; the up*/down* rule may forbid one of the two directions but
     never disconnects. *)
  let c = Testlib.configure (B.ring ~n:4 ()) in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          match Routes.distance c.routes ~src ~dst with
          | Some d ->
            if src = dst then check_int "self" 0 d
            else if d < 1 || d > 3 then Alcotest.failf "distance %d" d
          | None -> Alcotest.failf "unreachable %d->%d" src dst)
        [ 0; 1; 2; 3 ])
    [ 0; 1; 2; 3 ]

let test_routes_phase_of_arrival () =
  let c = Testlib.configure (B.line ~n:3 ()) in
  let g = c.Testlib.graph in
  (* Packet arriving at switch 1 from switch 2 moved up (toward root 0);
     arriving at 1 from 0 moved down. *)
  let port_1_to_2 =
    List.find_map
      (fun (p, _, peer, _) -> if peer = 2 then Some p else None)
      (Graph.neighbors g 1)
    |> Option.get
  in
  let port_1_to_0 =
    List.find_map
      (fun (p, _, peer, _) -> if peer = 0 then Some p else None)
      (Graph.neighbors g 1)
    |> Option.get
  in
  check_bool "from 2: up" true
    (Routes.phase_of_arrival c.routes ~at:1 ~in_port:port_1_to_2 = Routes.Up);
  check_bool "from 0: down" true
    (Routes.phase_of_arrival c.routes ~at:1 ~in_port:port_1_to_0 = Routes.Down);
  check_bool "control: up" true
    (Routes.phase_of_arrival c.routes ~at:1 ~in_port:0 = Routes.Up)

let test_routes_down_phase_restricted () =
  (* In Down phase at a switch the only continuations are down links. *)
  let c = Testlib.configure (B.torus ~rows:3 ~cols:3 ()) in
  let g = c.Testlib.graph in
  List.iter
    (fun s ->
      List.iter
        (fun dst ->
          List.iter
            (fun (p, l_id) ->
              match Graph.link g l_id with
              | Some l ->
                ignore p;
                check_bool "down move only" false
                  (Updown.goes_up c.updown l ~from:s)
              | None -> ())
            (Routes.next_hops c.routes ~at:s ~phase:Routes.Down ~dst))
        (Graph.switches g))
    (Graph.switches g)

let test_routes_all_hops_superset () =
  let c = Testlib.configure (B.torus ~rows:3 ~cols:3 ()) in
  let g = c.Testlib.graph in
  List.iter
    (fun s ->
      List.iter
        (fun dst ->
          if s <> dst then begin
            let minimal = Routes.next_hops c.routes ~at:s ~phase:Routes.Up ~dst in
            let all = Routes.all_next_hops c.routes ~at:s ~phase:Routes.Up ~dst in
            List.iter
              (fun hop -> check_bool "minimal within all" true (List.mem hop all))
              minimal
          end)
        (Graph.switches g))
    (Graph.switches g)

let test_routes_legal_route_checker () =
  let c = Testlib.configure (B.ring ~n:4 ()) in
  let g = c.Testlib.graph in
  (* Any reported minimal route must satisfy the legality checker. *)
  let rec follow s dst acc =
    if s = dst then List.rev (s :: acc)
    else
      match Routes.next_hops c.routes ~at:s ~phase:Routes.Up ~dst with
      | (_, l_id) :: _ ->
        let l = Option.get (Graph.link g l_id) in
        let peer, _ = Graph.other_end l s in
        follow peer dst (s :: acc)
      | [] -> List.rev (s :: acc)
  in
  let path = follow 1 3 [] in
  check_bool "path legal" true (Routes.legal_route c.routes g c.updown path)

let routes_reachability_qcheck =
  QCheck.Test.make ~name:"every switch pair reachable via legal routes"
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 7)) in
      let t = Testlib.random_topology rng ~max_n:14 in
      let c = Testlib.configure t in
      let g = c.Testlib.graph in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst -> Routes.distance c.routes ~src ~dst <> None)
            (Graph.switches g))
        (Graph.switches g))

(* ------------------------------------------------------------------ *)
(* Address assignment *)

let test_assign_no_conflict () =
  let r = Address_assign.resolve_proposals [ (uid 10, 3); (uid 20, 5) ] in
  Alcotest.(check (list (pair int int)))
    "kept" [ (10, 3); (20, 5) ]
    (List.map (fun (u, n) -> (Uid.to_int u, n)) r)

let test_assign_conflict_smallest_uid_wins () =
  let r = Address_assign.resolve_proposals [ (uid 20, 3); (uid 10, 3) ] in
  (* UID 10 keeps 3; UID 20 gets the lowest unrequested number (1). *)
  Alcotest.(check (list (pair int int)))
    "resolved" [ (10, 3); (20, 1) ]
    (List.map (fun (u, n) -> (Uid.to_int u, n)) r)

let test_assign_losers_get_unrequested () =
  let r =
    Address_assign.resolve_proposals
      [ (uid 1, 1); (uid 2, 1); (uid 3, 1); (uid 4, 2) ]
  in
  (* 1 keeps 1; 4 keeps 2; 2 and 3 must skip requested numbers 1-2 and get
     3 and 4. *)
  Alcotest.(check (list (pair int int)))
    "resolved" [ (1, 1); (2, 3); (3, 4); (4, 2) ]
    (List.map (fun (u, n) -> (Uid.to_int u, n)) r)

let test_assign_invalid_proposals () =
  let r = Address_assign.resolve_proposals [ (uid 1, 0); (uid 2, 99999) ] in
  let numbers = List.map snd r in
  check_bool "all valid" true
    (List.for_all
       (fun n -> n >= 1 && n <= Short_address.max_switch_number)
       numbers);
  check_bool "distinct" true (List.sort_uniq Int.compare numbers = List.sort Int.compare numbers)

let test_assign_stability () =
  (* Re-proposing the previous assignment is a fixed point: addresses tend
     to survive epochs. *)
  let first = Address_assign.resolve_proposals [ (uid 5, 1); (uid 6, 1); (uid 7, 4) ] in
  let second = Address_assign.resolve_proposals first in
  check_bool "fixed point" true (first = second)

let assign_qcheck =
  QCheck.Test.make ~name:"assignments valid and distinct" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 40) (int_bound 50))
    (fun proposals ->
      let named = List.mapi (fun i p -> (uid (1000 + i), p)) proposals in
      let r = Address_assign.resolve_proposals named in
      let numbers = List.map snd r in
      List.length r = List.length named
      && List.for_all (fun n -> n >= 1 && n <= Short_address.max_switch_number) numbers
      && List.length (List.sort_uniq Int.compare numbers) = List.length numbers)

(* ------------------------------------------------------------------ *)
(* Tables + Verify *)

let test_tables_all_hosts_reach_all () =
  let t = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  Alcotest.(check int) "no failed pairs" 0
    (List.length (Verify.all_hosts_reach_all c.net c.assignment))

let test_tables_no_down_then_up () =
  let t = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  check_bool "rule holds" true (Verify.no_down_then_up c.net c.updown)

let test_tables_broadcast_coverage () =
  let t = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  let g = c.Testlib.graph in
  let host_ports = Testlib.host_endpoints g in
  let n_hosts = List.length host_ports in
  let n_switches = Graph.switch_count g in
  let from = List.hd host_ports in
  (* FFFF: every host exactly once, the sender included (its LocalNet
     filters the copy by UID). *)
  let d_hosts = Verify.flood_broadcast c.net ~from ~dst:Short_address.broadcast_hosts in
  check_int "hosts covered" n_hosts (List.length d_hosts);
  check_bool "no duplicates" true
    (List.length (List.sort_uniq compare d_hosts) = List.length d_hosts);
  (* FFFE: every switch control processor. *)
  let d_sw = Verify.flood_broadcast c.net ~from ~dst:Short_address.broadcast_switches in
  check_int "switches covered" n_switches (List.length d_sw);
  check_bool "all control ports" true
    (List.for_all (fun (d : Verify.delivery) -> d.out_port = 0) d_sw);
  (* FFFD: everyone. *)
  let d_all = Verify.flood_broadcast c.net ~from ~dst:Short_address.broadcast_all in
  check_int "all covered" (n_hosts + n_switches) (List.length d_all)

let test_tables_loopback () =
  let t = B.attach_hosts (B.line ~n:2 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  let from = List.hd (Testlib.host_endpoints c.Testlib.graph) in
  let outcome, hops = Verify.walk_unicast c.net ~from ~dst:Short_address.loopback in
  (match outcome with
  | Verify.Delivered d ->
    check_int "same switch" (fst from) d.Verify.at_switch;
    check_int "same port" (snd from) d.Verify.out_port
  | o -> Alcotest.failf "loopback: %a" Verify.pp_outcome o);
  check_int "zero hops" 0 hops

let test_tables_local_switch_address () =
  let t = B.attach_hosts (B.line ~n:2 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  let from = List.hd (Testlib.host_endpoints c.Testlib.graph) in
  let outcome, _ = Verify.walk_unicast c.net ~from ~dst:Short_address.local_switch in
  match outcome with
  | Verify.Delivered d ->
    check_int "local switch" (fst from) d.Verify.at_switch;
    check_int "control port" 0 d.Verify.out_port
  | o -> Alcotest.failf "local switch: %a" Verify.pp_outcome o

let test_tables_control_to_control () =
  (* Control processors address each other with assigned (switch, 0)
     addresses. *)
  let c = Testlib.configure (B.torus ~rows:3 ~cols:3 ()) in
  List.iter
    (fun src ->
      List.iter
        (fun dst_sw ->
          if src <> dst_sw then begin
            let addr = Address_assign.address c.assignment dst_sw 0 in
            let outcome, _ = Verify.walk_unicast c.net ~from:(src, 0) ~dst:addr in
            match outcome with
            | Verify.Delivered d ->
              check_int "switch" dst_sw d.Verify.at_switch;
              check_int "port 0" 0 d.Verify.out_port
            | o -> Alcotest.failf "s%d->s%d: %a" src dst_sw Verify.pp_outcome o
          end)
        (Graph.switches c.Testlib.graph))
    (Graph.switches c.Testlib.graph)

let test_tables_reserved_discarded () =
  let t = B.attach_hosts (B.line ~n:3 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  let from = List.hd (Testlib.host_endpoints c.Testlib.graph) in
  List.iter
    (fun a ->
      let outcome, _ =
        Verify.walk_unicast c.net ~from ~dst:(Short_address.of_int a)
      in
      match outcome with
      | Verify.Discarded _ -> ()
      | o -> Alcotest.failf "0x%04X: %a" a Verify.pp_outcome o)
    [ 0xFFF0; 0xFFF5; 0xFFFB ]

let test_tables_unknown_address_discarded () =
  let t = B.attach_hosts (B.line ~n:3 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  let from = List.hd (Testlib.host_endpoints c.Testlib.graph) in
  (* An assigned-range address belonging to no one. *)
  let outcome, _ = Verify.walk_unicast c.net ~from ~dst:(Short_address.of_int 0x7FF7) in
  match outcome with
  | Verify.Discarded _ -> ()
  | o -> Alcotest.failf "unknown: %a" Verify.pp_outcome o

let test_tables_one_hop () =
  let c = Testlib.configure (B.line ~n:2 ()) in
  let g = c.Testlib.graph in
  (* From switch 0's control processor, one-hop out the port to switch 1
     lands at switch 1's control processor. *)
  let port_0_to_1 =
    List.find_map
      (fun (p, _, peer, _) -> if peer = 1 then Some p else None)
      (Graph.neighbors g 0)
    |> Option.get
  in
  let addr = Short_address.one_hop ~port:port_0_to_1 in
  let outcome, _ = Verify.walk_unicast c.net ~from:(0, 0) ~dst:addr in
  match outcome with
  | Verify.Delivered d ->
    check_int "switch 1" 1 d.Verify.at_switch;
    check_int "control" 0 d.Verify.out_port
  | o -> Alcotest.failf "one hop: %a" Verify.pp_outcome o

let test_tables_parallel_trunk () =
  (* Two links between the same pair of switches act as a trunk group:
     the forwarding entry lists both ports as alternatives. *)
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 10) in
  let s1 = Graph.add_switch g ~uid:(uid 20) in
  ignore (Graph.connect g (s0, 1) (s1, 1));
  ignore (Graph.connect g (s0, 2) (s1, 2));
  Graph.attach_host g ~host_uid:(uid 0x900) ~host_port:0 (s0, 5);
  Graph.attach_host g ~host_uid:(uid 0x901) ~host_port:0 (s1, 5);
  let c = Testlib.configure { B.graph = g; name = "trunk" } in
  let spec = List.find (fun sp -> Tables.switch sp = s0) c.specs in
  let dst = Address_assign.address c.assignment s1 5 in
  let entry = Tables.lookup spec ~in_port:5 ~dst in
  Alcotest.(check (list int)) "trunk ports" [ 1; 2 ]
    (Port_vector.to_list (Tables.vector entry))

let tables_qcheck =
  QCheck.Test.make ~name:"tables: reachability + down/up rule on random nets"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 13)) in
      let t = Testlib.random_topology rng ~max_n:10 in
      let c = Testlib.configure t in
      Verify.all_hosts_reach_all c.net c.assignment = []
      && Verify.no_down_then_up c.net c.updown)

let test_tables_late_host_remote_reachability () =
  (* Remote switches carry entries for every port address of every member
     switch, so a host plugged in after the reconfiguration is reachable
     from afar the moment its own switch enables it locally (paper 6.5.3).
     Here: route toward an address whose port held no host at build time —
     the packet must reach the destination switch (and be discarded there,
     not earlier). *)
  let t = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  let from = List.hd (Testlib.host_endpoints c.Testlib.graph) in
  let dst_switch = 8 in
  let free = Option.get (Graph.free_port c.Testlib.graph dst_switch) in
  let addr = Address_assign.address c.assignment dst_switch free in
  match Verify.walk_unicast c.net ~from ~dst:addr with
  | Verify.Discarded s, hops ->
    check_int "travelled to the destination switch" dst_switch s;
    check_bool "made hops" true (hops > 0)
  | o, _ -> Alcotest.failf "unexpected: %a" Verify.pp_outcome o

(* Remote blocks with equal next-hop sets share one page: an edit to one
   block must stay inside it, keep the count exact and miss earlier
   copies. *)
let test_tables_edit_stays_in_block () =
  let c = Testlib.configure (B.torus ~rows:4 ~cols:4 ()) in
  let addr d q = Address_assign.address c.assignment d q in
  let block sp d =
    List.init 16 (fun q ->
        List.init 16 (fun in_port -> Tables.lookup sp ~in_port ~dst:(addr d q)))
  in
  let twins spec =
    let s = Tables.switch spec in
    let remote =
      List.filter
        (fun d ->
          d <> s
          && List.exists (List.exists (fun e -> e <> Tables.discard)) (block spec d))
        (Graph.switches c.Testlib.graph)
    in
    List.concat_map
      (fun d1 ->
        List.filter_map
          (fun d2 ->
            if d1 < d2 && block spec d1 = block spec d2 then Some (spec, d1, d2)
            else None)
          remote)
      remote
  in
  let spec, d1, d2 =
    match List.concat_map twins c.Testlib.specs with
    | twin :: _ -> twin
    | [] -> Alcotest.fail "no two remote blocks read the same"
  in
  let s = Tables.switch spec in
  let second = block spec d2 and first = block spec d1 in
  let snapshot = Tables.copy ~switch:s spec in
  let in_port =
    Option.value ~default:0
      (List.find_opt
         (fun p -> Tables.lookup spec ~in_port:p ~dst:(addr d1 3) = Tables.discard)
         (List.init 16 Fun.id))
  in
  let e = Tables.entry ~broadcast:true (Port_vector.singleton 1) in
  Tables.set spec ~in_port ~dst:(addr d1 3) e;
  check_bool "the edit reads back" true
    (e = Tables.lookup spec ~in_port ~dst:(addr d1 3));
  check_bool "the twin block is unchanged" true (block spec d2 = second);
  check_int "entry count is exact"
    (Tables.fold spec ~init:0 ~f:(fun n ~in_port:_ ~dst:_ _ -> n + 1))
    (Tables.entry_count spec);
  check_bool "the earlier copy does not see it" true (block snapshot d1 = first)

let test_spanning_tree_is_tree_link () =
  let t = B.ring ~n:5 () in
  let g = t.B.graph in
  let tree = Spanning_tree.compute g ~member:0 in
  let tree_links =
    List.filter (fun (l : Graph.link) -> Spanning_tree.is_tree_link tree l.id)
      (Graph.links g)
  in
  (* A spanning tree of 5 switches has 4 edges; the ring has 5 links. *)
  check_int "tree links" 4 (List.length tree_links)

(* ------------------------------------------------------------------ *)
(* Deadlock analysis *)

let test_deadlock_updown_acyclic () =
  let t = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let c = Testlib.configure t in
  match Deadlock.check_tables c.Testlib.graph c.specs with
  | Deadlock.Acyclic -> ()
  | Deadlock.Cycle cyc ->
    Alcotest.failf "unexpected cycle: %a" Deadlock.pp_result (Deadlock.Cycle cyc)

let test_deadlock_shortest_path_cycles () =
  (* Unrestricted shortest-path routing on a ring has the classic cyclic
     channel dependency. *)
  let c = Testlib.configure (B.ring ~n:4 ()) in
  let specs =
    Autonet_baseline.Alt_routing.shortest_path c.Testlib.graph c.tree
      c.assignment
  in
  match Deadlock.check_tables c.graph specs with
  | Deadlock.Cycle _ -> ()
  | Deadlock.Acyclic -> Alcotest.fail "expected a cyclic dependency on the ring"

let deadlock_qcheck =
  QCheck.Test.make ~name:"up*/down* tables never deadlock" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 21)) in
      let t = Testlib.random_topology rng ~max_n:14 in
      let c = Testlib.configure t in
      Deadlock.check_tables c.Testlib.graph c.specs = Deadlock.Acyclic)

(* ------------------------------------------------------------------ *)
(* Topology report *)

let test_report_roundtrip () =
  let t = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let r = Testlib.report_of_graph t.B.graph in
  let w = Wire.Writer.create () in
  Topology_report.encode w r;
  let r' = Topology_report.decode (Wire.Reader.of_string (Wire.Writer.contents w)) in
  check_bool "roundtrip" true (Topology_report.equal r r')

(* [decode] refuses what [to_graph] cannot build and what [encode] never
   writes. *)
let test_report_decode_rejects () =
  let body ~max_ports switches =
    let w = Wire.Writer.create () in
    Wire.Writer.u8 w max_ports;
    Wire.Writer.list w
      (fun (u, links) ->
        Wire.Writer.u48 w u;
        Wire.Writer.u16 w 1;
        for p = 1 to max_ports do
          match List.assoc_opt p links with
          | Some (peer, peer_port) ->
            Wire.Writer.u8 w 2;
            Wire.Writer.u48 w peer;
            Wire.Writer.u8 w peer_port
          | None -> Wire.Writer.u8 w 0
        done)
      switches;
    Wire.Writer.contents w
  in
  let decode s = Topology_report.decode (Wire.Reader.of_string s) in
  let accepts what s =
    match decode s with
    | r -> ignore (Topology_report.to_graph r)
    | exception Wire.Malformed m -> Alcotest.failf "%s: rejected (%s)" what m
  in
  let rejects what s =
    match decode s with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Wire.Malformed _ -> ()
  in
  let pair ~max_ports peer_port =
    body ~max_ports
      [ (1, [ (1, (2, peer_port)) ]); (2, [ (max_ports, (1, 1)) ]) ]
  in
  accepts "max_ports 1" (pair ~max_ports:1 1);
  accepts "max_ports 15" (pair ~max_ports:15 15);
  rejects "max_ports 0" (body ~max_ports:0 [ (1, []) ]);
  rejects "max_ports 16" (body ~max_ports:16 [ (1, []) ]);
  rejects "max_ports 200" (body ~max_ports:200 [ (1, []) ]);
  rejects "repeated UID" (body ~max_ports:4 [ (1, []); (1, []) ]);
  rejects "descending UIDs" (body ~max_ports:4 [ (2, []); (1, []) ]);
  rejects "peer_port 0" (pair ~max_ports:4 0);
  rejects "peer_port 5 of 4" (pair ~max_ports:4 5);
  rejects "peer_port 200" (pair ~max_ports:4 200)

let fresh_bytes r =
  let w = Wire.Writer.create () in
  Topology_report.encode w r;
  Wire.Writer.contents w

let decode_all ?among s =
  let rd = Wire.Reader.of_string s in
  let r = Topology_report.decode ?among rd in
  Wire.Reader.expect_end rd;
  r

(* [wire] always reads back as a fresh [encode], whether the report came
   from [singleton], from [merge] (also of operands whose bytes are
   already memoized) or from [decode]; decoding among candidates returns
   the candidate whose bytes match, and an equal fresh value otherwise. *)
let report_wire_never_stale =
  QCheck.Test.make ~name:"memoized bytes are never stale" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 31)) in
      let g = (Testlib.random_topology rng ~max_n:10).B.graph in
      let full = Testlib.report_of_graph g in
      let fresh r =
        let s = Topology_report.wire r in
        s = fresh_bytes r && Topology_report.equal (decode_all s) r
      in
      let singles =
        List.map
          (fun d ->
            Topology_report.singleton ~max_ports:(Graph.max_ports g) d)
          (Topology_report.switches full)
      in
      let merged =
        List.fold_left
          (fun acc r ->
            (* Memoize the operands first: the union must not inherit
               either's bytes. *)
            ignore (Topology_report.wire acc);
            ignore (Topology_report.wire r);
            let m = Topology_report.merge acc r in
            if not (fresh m) then QCheck.Test.fail_report "stale merge";
            m)
          (List.hd singles) (List.tl singles)
      in
      let bytes = fresh_bytes full in
      let decoded = decode_all bytes in
      let other = List.hd singles in
      List.for_all fresh singles
      && Topology_report.equal merged full
      && fresh decoded
      && decode_all ~among:[ other; merged ] bytes == merged
      && decode_all ~among:[ decoded; other ] bytes == decoded
      &&
      let miss = decode_all ~among:[ other ] bytes in
      miss != other && miss != merged && Topology_report.equal miss full)

let test_report_to_graph () =
  let t = B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2 in
  let g = t.B.graph in
  let g' = Topology_report.to_graph (Testlib.report_of_graph g) in
  check_int "switches" (Graph.switch_count g) (Graph.switch_count g');
  check_int "links" (Graph.link_count g) (Graph.link_count g');
  check_int "host ports" (List.length (Graph.hosts g)) (List.length (Graph.hosts g'));
  (* Same spanning tree shape after the rebuild. *)
  let tree = Spanning_tree.compute g ~member:0 in
  let tree' = Spanning_tree.compute g' ~member:0 in
  check_bool "same root uid" true
    (Uid.equal
       (Graph.uid g (Spanning_tree.root tree))
       (Graph.uid g' (Spanning_tree.root tree')));
  check_int "same depth" (Spanning_tree.depth tree) (Spanning_tree.depth tree')

let test_report_merge_conflict () =
  let d1 =
    Topology_report.switch_desc ~uid:(uid 5) ~proposed_number:1 ~max_ports:12
      [ (1, Topology_report.Host_port) ]
  in
  let d2 =
    Topology_report.switch_desc ~uid:(uid 5) ~proposed_number:2 ~max_ports:12
      [ (1, Topology_report.Host_port) ]
  in
  let r1 = Topology_report.singleton ~max_ports:12 d1 in
  let r2 = Topology_report.singleton ~max_ports:12 d2 in
  check_bool "merge conflict raises" true
    (try
       ignore (Topology_report.merge r1 r2);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Epoch *)

let test_epoch () =
  let open Epoch in
  check_bool "zero" true (equal zero (of_int64 0L));
  check_bool "next greater" true (next zero > zero);
  check_bool "max" true (equal (max (next zero) zero) (next zero));
  check_int "compare" (-1) (compare zero (next zero))

let () =
  Alcotest.run "core"
    [ ( "graph",
        [ Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "port conflicts" `Quick test_graph_port_conflicts;
          Alcotest.test_case "duplicate uid" `Quick test_graph_duplicate_uid;
          Alcotest.test_case "loop link" `Quick test_graph_loop_link;
          Alcotest.test_case "hosts" `Quick test_graph_hosts;
          Alcotest.test_case "components" `Quick test_graph_components;
          Alcotest.test_case "copy isolation" `Quick test_graph_copy_isolated ] );
      ( "spanning_tree",
        [ Alcotest.test_case "line levels" `Quick test_tree_line;
          Alcotest.test_case "root is min uid" `Quick test_tree_root_is_min_uid;
          Alcotest.test_case "parent tie break by uid" `Quick
            test_tree_parent_tie_break_uid;
          Alcotest.test_case "parent tie break by port" `Quick
            test_tree_parent_tie_break_port;
          Alcotest.test_case "children" `Quick test_tree_children;
          Alcotest.test_case "children allocate nothing" `Quick
            test_tree_children_allocate_nothing;
          Alcotest.test_case "position ordering" `Quick test_tree_position_ordering;
          Alcotest.test_case "positions are stable" `Quick test_tree_matches_positions ] );
      ( "updown",
        [ Alcotest.test_case "tree links point up" `Quick
            test_updown_tree_links_point_up;
          Alcotest.test_case "tie break by uid" `Quick test_updown_tie_break_uid;
          Alcotest.test_case "loops excluded" `Quick test_updown_loop_excluded;
          QCheck_alcotest.to_alcotest updown_acyclic_qcheck ] );
      ( "routes",
        [ Alcotest.test_case "line distances" `Quick test_routes_line_distance;
          Alcotest.test_case "ring multipath" `Quick test_routes_ring_multipath;
          Alcotest.test_case "phase of arrival" `Quick test_routes_phase_of_arrival;
          Alcotest.test_case "down phase restricted" `Quick
            test_routes_down_phase_restricted;
          Alcotest.test_case "all hops superset" `Quick test_routes_all_hops_superset;
          Alcotest.test_case "legal route checker" `Quick
            test_routes_legal_route_checker;
          QCheck_alcotest.to_alcotest routes_reachability_qcheck ] );
      ( "address_assign",
        [ Alcotest.test_case "no conflict" `Quick test_assign_no_conflict;
          Alcotest.test_case "smallest uid wins" `Quick
            test_assign_conflict_smallest_uid_wins;
          Alcotest.test_case "losers get unrequested" `Quick
            test_assign_losers_get_unrequested;
          Alcotest.test_case "invalid proposals" `Quick test_assign_invalid_proposals;
          Alcotest.test_case "stability" `Quick test_assign_stability;
          QCheck_alcotest.to_alcotest assign_qcheck ] );
      ( "tables",
        [ Alcotest.test_case "all hosts reach all" `Quick
            test_tables_all_hosts_reach_all;
          Alcotest.test_case "no down then up" `Quick test_tables_no_down_then_up;
          Alcotest.test_case "broadcast coverage" `Quick test_tables_broadcast_coverage;
          Alcotest.test_case "loopback" `Quick test_tables_loopback;
          Alcotest.test_case "local switch address" `Quick
            test_tables_local_switch_address;
          Alcotest.test_case "control to control" `Quick test_tables_control_to_control;
          Alcotest.test_case "reserved discarded" `Quick test_tables_reserved_discarded;
          Alcotest.test_case "unknown discarded" `Quick
            test_tables_unknown_address_discarded;
          Alcotest.test_case "one hop" `Quick test_tables_one_hop;
          Alcotest.test_case "parallel trunk" `Quick test_tables_parallel_trunk;
          Alcotest.test_case "late host reachable remotely" `Quick
            test_tables_late_host_remote_reachability;
          Alcotest.test_case "edit stays in its block" `Quick
            test_tables_edit_stays_in_block;
          Alcotest.test_case "tree link count" `Quick
            test_spanning_tree_is_tree_link;
          QCheck_alcotest.to_alcotest tables_qcheck ] );
      ( "deadlock",
        [ Alcotest.test_case "up*/down* acyclic" `Quick test_deadlock_updown_acyclic;
          Alcotest.test_case "shortest path cycles" `Quick
            test_deadlock_shortest_path_cycles;
          QCheck_alcotest.to_alcotest deadlock_qcheck ] );
      ( "topology_report",
        [ Alcotest.test_case "roundtrip" `Quick test_report_roundtrip;
          Alcotest.test_case "to graph" `Quick test_report_to_graph;
          Alcotest.test_case "merge conflict" `Quick test_report_merge_conflict;
          Alcotest.test_case "decode rejects unbuildable reports" `Quick
            test_report_decode_rejects;
          QCheck_alcotest.to_alcotest report_wire_never_stale ] );
      ("epoch", [ Alcotest.test_case "basics" `Quick test_epoch ]) ]

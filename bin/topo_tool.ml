(* topo-tool: inspect what the reconfiguration algorithms decide for a
   topology — the graph, the spanning tree, the up*/down* orientation, the
   address assignment, a route between two switches, and the deadlock
   analysis of the resulting tables.

     dune exec bin/topo_tool.exe -- --topo torus:4,8 tree
     dune exec bin/topo_tool.exe -- --topo src route 0 29
     dune exec bin/topo_tool.exe -- --topo random:16,8 --seed 7 check *)

open Autonet_core
open Autonet_net
module B = Autonet_topo.Builders
open Cmdliner

let configure topo =
  let g = topo.B.graph in
  let tree = Spanning_tree.compute g ~member:0 in
  let updown = Updown.orient g tree in
  let routes = Routes.compute g tree updown in
  let assignment =
    Address_assign.make g
      (List.map (fun s -> (s, 1)) (Spanning_tree.members tree))
  in
  (g, tree, updown, routes, assignment)

let cmd_graph topo =
  Format.printf "%a@." B.pp topo

let cmd_tree topo =
  let g, tree, updown, _, _ = configure topo in
  Format.printf "%a@.%a@." (Spanning_tree.pp g) tree (Updown.pp g) updown

let cmd_addresses topo =
  let g, _, _, _, assignment = configure topo in
  Format.printf "%a@." Address_assign.pp assignment;
  List.iter
    (fun (h : Graph.host_attachment) ->
      Format.printf "  host %a at s%d.p%d -> %a@." Uid.pp h.host_uid h.switch
        h.switch_port Short_address.pp
        (Address_assign.address assignment h.switch h.switch_port))
    (Graph.hosts g)

let cmd_route topo src dst =
  let g, _, updown, routes, _ = configure topo in
  match Routes.distance routes ~src ~dst with
  | None -> Format.printf "s%d cannot reach s%d@." src dst
  | Some d ->
    Format.printf "s%d -> s%d: %d hop(s) on minimal legal routes@." src dst d;
    (* Walk one minimal route, printing the up/down direction per hop. *)
    let rec walk at phase =
      if at <> dst then begin
        match Routes.next_hops routes ~at ~phase ~dst with
        | [] -> Format.printf "  (stuck at s%d?)@." at
        | (p, l_id) :: _ ->
          let l = Option.get (Graph.link g l_id) in
          let peer, _ = Graph.other_end l at in
          let up = Updown.goes_up updown l ~from:at in
          Format.printf "  s%d --p%d--> s%d (%s)@." at p peer
            (if up then "up" else "down");
          walk peer (if up then phase else Routes.Down)
      end
    in
    walk src Routes.Up

let cmd_check topo =
  let g, tree, updown, routes, assignment = configure topo in
  let pool = Autonet_parallel.Pool.default () in
  Autonet_parallel.Pool.set_metrics_enabled pool true;
  let specs = Tables.build_all ~pool g tree updown routes assignment in
  let net = Verify.make g specs in
  Format.printf "switches: %d, links: %d, host ports: %d@."
    (Graph.switch_count g) (Graph.link_count g)
    (List.length (Graph.hosts g));
  Format.printf "domains: %d@." (Autonet_parallel.Pool.domains pool);
  let acyclic = Updown.verify_acyclic g updown in
  Format.printf "orientation acyclic: %b@." acyclic;
  let deadlock = Deadlock.check_tables ~pool g specs in
  Format.printf "deadlock analysis: %a@." Deadlock.pp_result deadlock;
  let no_down_up = Verify.no_down_then_up net updown in
  Format.printf "down-then-up entries: %s@."
    (if no_down_up then "none" else "PRESENT (bug)");
  let failures = Verify.all_hosts_reach_all net assignment in
  Format.printf "host pairs failing to deliver: %d@." (List.length failures);
  let entries =
    List.fold_left (fun acc s -> acc + Tables.entry_count s) 0 specs
  in
  Format.printf "forwarding table entries: %d total@." entries;
  (* How the pool actually scheduled the two fan-outs above: batches
     claimed and batches stolen off another domain's static share.
     Diagnostic only — unlike the deterministic pool counters, these
     depend on the domain count. *)
  Format.printf "pool scheduling:@.%s"
    (Autonet_telemetry.Metrics.render
       (Autonet_parallel.Pool.sched_snapshot pool));
  if not (acyclic && deadlock = Deadlock.Acyclic && no_down_up && failures = [])
  then exit 1

(* --- Cmdliner plumbing --- *)

let topo_arg =
  let doc = "Topology: " ^ B.spec_grammar ^ "." in
  Arg.(value & opt Topo_spec.conv "src" & info [ "topo"; "t" ] ~docv:"SPEC" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let hosts_arg =
  Arg.(
    value & opt int 0
    & info [ "hosts" ] ~docv:"N" ~doc:"Attach N host ports per switch.")

let with_topo f spec seed hosts =
  f (B.of_spec spec ~seed:(Int64.of_int seed) ~hosts)

let simple name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (with_topo f) $ topo_arg $ seed_arg $ hosts_arg)

let route_cmd =
  let switch n docv =
    Arg.(required & pos n (some (Topo_spec.at_least 0)) None & info [] ~docv)
  in
  Cmd.v
    (Cmd.info "route" ~doc:"Show a minimal legal route between two switches.")
    Term.(
      ret
        (const (fun spec seed hosts s d ->
             with_topo
               (fun topo ->
                 Topo_spec.check_switch topo ~what:"SRC" s (fun () ->
                     Topo_spec.check_switch topo ~what:"DST" d (fun () ->
                         `Ok (cmd_route topo s d))))
               spec seed hosts)
        $ topo_arg $ seed_arg $ hosts_arg $ switch 0 "SRC" $ switch 1 "DST"))

let () =
  let info =
    Cmd.info "autonet-topo"
      ~doc:"Inspect Autonet topologies, spanning trees, routes and tables."
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ simple "graph" "Print the physical topology." cmd_graph;
            simple "tree" "Print the spanning tree and link orientation."
              cmd_tree;
            simple "addresses" "Print switch numbers and host addresses."
              cmd_addresses;
            route_cmd;
            simple "check"
              "Verify reachability, deadlock freedom and table invariants."
              cmd_check ]))

(* Shared helpers for the test suites. *)

open Autonet_core

type configured = {
  graph : Graph.t;
  tree : Spanning_tree.t;
  updown : Updown.t;
  routes : Routes.t;
  assignment : Address_assign.t;
  specs : Tables.spec list;
  net : Verify.net;
}

(* Run the full pure reconfiguration pipeline on a topology, proposing
   switch number 1 for everyone (the fresh-boot case). *)
let configure ?mode (t : Autonet_topo.Builders.t) =
  let c = Configuration.boot t.graph in
  let specs = Configuration.tables ?mode c in
  { graph = c.graph; tree = c.tree; updown = c.updown; routes = c.routes;
    assignment = c.assignment; specs; net = Verify.make c.graph specs }

let host_endpoints g =
  List.map
    (fun (h : Graph.host_attachment) -> (h.switch, h.switch_port))
    (Graph.hosts g)

(* The first link of [g] that is not in switch 0's spanning tree: a
   fault on it keeps the tree, so the network reconfigures on the delta
   path. *)
let non_tree_link g =
  let tree = Spanning_tree.compute g ~member:0 in
  let tree_link (l : Graph.link) =
    List.exists
      (fun s ->
        match Spanning_tree.parent tree s with
        | Some p -> Graph.link_at g (s, p.Spanning_tree.my_port) = Some l.id
        | None -> false)
      (Graph.switches g)
  in
  List.find (fun l -> not (tree_link l)) (Graph.links g)

(* Random topology generator for property tests: up to [max_n] switches
   with shuffled UIDs, random extra links, and a couple of hosts. *)
let random_topology rng ~max_n =
  let n = 2 + Autonet_sim.Rng.int rng (max_n - 1) in
  let extra = Autonet_sim.Rng.int rng (1 + (n / 2)) in
  let uid_of = Autonet_topo.Builders.shuffled_uids rng n in
  let t = Autonet_topo.Builders.random_connected ~uid_of ~rng ~n ~extra_links:extra () in
  Autonet_topo.Builders.attach_hosts t ~per_switch:2

(* The complete report a correct protocol run would accumulate for [g],
   every switch proposing number 1. *)
let report_of_graph g =
  List.fold_left
    (fun acc s ->
      let used =
        List.filter_map
          (fun p ->
            match Graph.host_at g (s, p) with
            | Some _ -> Some (p, Topology_report.Host_port)
            | None -> (
              match Graph.link_at g (s, p) with
              | Some l_id -> (
                match Graph.link g l_id with
                | Some l ->
                  let peer, peer_port = Graph.other_end l s in
                  Some
                    ( p,
                      Topology_report.Switch_link
                        { peer = Graph.uid g peer; peer_port } )
                | None -> None)
              | None -> None))
          (Graph.used_ports g s)
      in
      let desc =
        Topology_report.switch_desc ~uid:(Graph.uid g s) ~proposed_number:1
          ~max_ports:(Graph.max_ports g) used
      in
      let single = Topology_report.singleton ~max_ports:(Graph.max_ports g) desc in
      match acc with
      | None -> Some single
      | Some r -> Some (Topology_report.merge r single))
    None (Graph.switches g)
  |> Option.get

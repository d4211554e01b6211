type t = {
  graph : Graph.t;
  tree : Spanning_tree.t;
  updown : Updown.t;
  routes : Routes.t;
  assignment : Address_assign.t;
}

let of_tree graph tree proposals =
  let updown = Updown.orient graph tree in
  let assignment = Address_assign.make graph proposals in
  { graph; tree; updown; routes = Routes.compute graph tree updown; assignment }

let make graph ~proposals =
  of_tree graph (Spanning_tree.compute graph ~member:0) proposals

let boot graph =
  let tree = Spanning_tree.compute graph ~member:0 in
  of_tree graph tree (List.map (fun s -> (s, 1)) (Spanning_tree.members tree))

let of_report report =
  let graph = Topology_report.to_graph report in
  let tree = Spanning_tree.compute graph ~member:0 in
  if List.length (Spanning_tree.members tree) <> Graph.switch_count graph then
    invalid_arg "Configuration.of_report: more than one component";
  of_tree graph tree (Topology_report.proposals report graph)

let tables ?mode ?pool c =
  Tables.build_all ?mode ?pool c.graph c.tree c.updown c.routes c.assignment

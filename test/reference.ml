(* List-based oracles for the configuration kernels of lib/core (paper
   section 6.6, step 5): spanning tree, up*/down* orientation, legal
   routes, forwarding tables and the channel-dependency deadlock check.
   Each recomputes its step the plain way — lists, [Queue.t], recursion —
   from the library's public API only, and returns a plain value; the
   crosscheck in test_fastpath.ml compares those values with the flat-array
   fast path's public accessors.  The oracles chain among themselves
   (tree, then orientation, then routes, then tables), so a fast-path bug
   cannot leak into its own oracle; [children] and [certifies] read the
   kernel's public tree and orientation, which the crosscheck has
   already compared with theirs.  The last one, [converged], is the
   list-based definition of a converged network that test_network.ml
   compares [Network.converged] with. *)

open Autonet_net
open Autonet_core

(* --- Spanning tree: the smallest UID is the root, levels are hop
   distances from it, and a switch's parent is the neighbour one level up
   with the smallest UID, then the smallest child-side port. --- *)

type tree = {
  root : Graph.switch;
  members : Graph.switch list;  (** ascending *)
  levels : int array;  (** per switch; -1 outside the component *)
  parents : Spanning_tree.parent option array;
}

let spanning_tree g ~member =
  let comp = List.find (List.mem member) (Graph.components g) in
  let root =
    List.fold_left
      (fun best s ->
        if Uid.compare (Graph.uid g s) (Graph.uid g best) < 0 then s else best)
      member comp
  in
  let n = Graph.switch_count g in
  let levels = Array.make n (-1) in
  let queue = Queue.create () in
  levels.(root) <- 0;
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    List.iter
      (fun (_, _, peer, _) ->
        if levels.(peer) < 0 then begin
          levels.(peer) <- levels.(v) + 1;
          Queue.add peer queue
        end)
      (Graph.neighbors g v)
  done;
  let parents = Array.make n None in
  List.iter
    (fun s ->
      (* [Graph.neighbors] ascends by port, so a strict UID comparison
         keeps the lowest port among equal parents. *)
      List.iter
        (fun (my_port, link, peer, parent_port) ->
          if levels.(peer) = levels.(s) - 1 then
            match parents.(s) with
            | Some (cur : Spanning_tree.parent)
              when Uid.compare (Graph.uid g cur.parent_switch) (Graph.uid g peer)
                   <= 0 ->
              ()
            | Some _ | None ->
              parents.(s) <-
                Some { Spanning_tree.link; my_port; parent_switch = peer;
                       parent_port })
        (Graph.neighbors g s))
    comp;
  { root; members = comp; levels; parents }

(* --- Tree children: the members whose public [parent] is [s], with
   the parent-side port and the link, ascending by child. --- *)

let children tree s =
  List.filter_map
    (fun c ->
      match Spanning_tree.parent tree c with
      | Some (p : Spanning_tree.parent) when p.parent_switch = s ->
        Some (p.parent_port, p.link, c)
      | Some _ | None -> None)
    (List.sort Int.compare (Spanning_tree.members tree))

(* --- Orientation: the up end of a link between two members is the end
   closer to the root, ties toward the smaller UID; loop links and links
   leaving the component are excluded (-1).  Indexed by link id. --- *)

let orientation g tree =
  let links = Graph.links g in
  let ups =
    Array.make
      (1 + List.fold_left (fun acc (l : Graph.link) -> max acc l.id) (-1) links)
      (-1)
  in
  List.iter
    (fun (l : Graph.link) ->
      let sa, _ = l.a and sb, _ = l.b in
      let la = tree.levels.(sa) and lb = tree.levels.(sb) in
      if sa <> sb && la >= 0 && lb >= 0 then
        ups.(l.id) <-
          (if la <> lb then if la < lb then sa else sb
           else if Uid.compare (Graph.uid g sa) (Graph.uid g sb) <= 0 then sa
           else sb))
    links;
  ups

let up_end ups id = if id >= 0 && id < Array.length ups then ups.(id) else -1

(* --- Routes: one backward BFS per member destination over the
   (switch, phase) states.  From the up phase a packet may take any
   usable link, staying up only while it climbs; from the down phase it
   may only descend. --- *)

type routes = {
  graph : Graph.t;
  ups : int array;
  dist : int array array;  (** [dist.(d).(state)]; [[||]] for non-members *)
}

let state s = function Routes.Up -> 2 * s | Routes.Down -> (2 * s) + 1

(* Legal moves out of [(s, phase)]: (next state, out-port, link),
   ascending by out-port. *)
let moves g ups s phase =
  List.filter_map
    (fun (p, l, peer, _) ->
      let up = up_end ups l in
      if up < 0 then None
      else if up = peer then
        if phase = Routes.Up then Some (state peer Routes.Up, p, l) else None
      else Some (state peer Routes.Down, p, l))
    (Graph.neighbors g s)

let routes g tree ups =
  let n = Graph.switch_count g in
  let pred = Array.make (2 * n) [] in
  List.iter
    (fun s ->
      List.iter
        (fun phase ->
          List.iter
            (fun (st', _, _) -> pred.(st') <- state s phase :: pred.(st'))
            (moves g ups s phase))
        [ Routes.Up; Routes.Down ])
    (Graph.switches g);
  let bfs d =
    let dd = Array.make (2 * n) (-1) in
    let queue = Queue.create () in
    List.iter
      (fun st ->
        dd.(st) <- 0;
        Queue.add st queue)
      [ state d Routes.Up; state d Routes.Down ];
    while not (Queue.is_empty queue) do
      let st = Queue.pop queue in
      List.iter
        (fun st' ->
          if dd.(st') < 0 then begin
            dd.(st') <- dd.(st) + 1;
            Queue.add st' queue
          end)
        pred.(st)
    done;
    dd
  in
  { graph = g;
    ups;
    dist = Array.init n (fun d -> if tree.levels.(d) >= 0 then bfs d else [||]) }

let distance_from r ~src ~phase ~dst =
  if r.dist.(dst) = [||] then None
  else
    let d = r.dist.(dst).(state src phase) in
    if d < 0 then None else Some d

(* The out-ports whose next state satisfies [keep here there], where
   [here] and [there] are the remaining distances before and after. *)
let hops_where keep r ~at ~phase ~dst =
  if at = dst || r.dist.(dst) = [||] then []
  else
    let dd = r.dist.(dst) in
    let here = dd.(state at phase) in
    List.filter_map
      (fun (st', p, l) -> if keep here dd.(st') then Some (p, l) else None)
      (moves r.graph r.ups at phase)

let next_hops = hops_where (fun here there -> here >= 0 && there = here - 1)
let all_next_hops = hops_where (fun _ there -> there >= 0)

(* --- Forwarding tables: the routed entries only.  For a member switch
   [s], every in-port 0..max_ports crossed with every assigned address of
   every member switch, in ascending order: at [s]'s own addresses the
   control processor and host ports deliver locally; at a remote
   switch's addresses a receiving in-port forwards on the next hops of
   its arrival phase.  Anything else is {!Tables.discard}.  The constant
   and broadcast rows are not rendered here. --- *)

let is_host_port g s p = p <> 0 && Graph.host_at g (s, p) <> None

let routed_entries ?(mode = Tables.Minimal_routes) r tree assignment s =
  let g = r.graph in
  (* [Some phase] for a receiving in-port: the control processor, a host
     port, or a port on a usable link. *)
  let arrival p =
    if p = 0 || is_host_port g s p then Some Routes.Up
    else
      match Graph.link_at g (s, p) with
      | None -> None
      | Some l ->
        let up = up_end r.ups l in
        if up < 0 then None
        else Some (if up = s then Routes.Up else Routes.Down)
  in
  let hops =
    match mode with
    | Tables.Minimal_routes -> next_hops r
    | Tables.All_legal_routes -> all_next_hops r
  in
  let entry ports =
    if ports = [] then Tables.discard
    else Tables.entry ~broadcast:false (Port_vector.of_list ports)
  in
  let in_ports = List.init (Graph.max_ports g + 1) Fun.id in
  List.concat_map
    (fun d ->
      List.concat_map
        (fun q ->
          let addr = Address_assign.address assignment d q in
          List.map
            (fun in_port ->
              ( (in_port, addr),
                match arrival in_port with
                | None -> Tables.discard
                | Some _ when s = d ->
                  entry (if q = 0 || is_host_port g d q then [ q ] else [])
                | Some phase ->
                  entry
                    (List.sort_uniq Int.compare
                       (List.map fst (hops ~at:s ~phase ~dst:d))) ))
            in_ports)
        in_ports)
    tree.members

(* --- Deadlock: the channel dependency graph of the tables' unicast
   entries, deduplicated through a pair set, searched by a recursive
   colouring DFS.  Channel [2 * link] crosses a link from its [a] end,
   [2 * link + 1] from its [b] end.  The recursion is as deep as the
   longest dependency chain: keep the inputs small. --- *)

let channel_from (l : Graph.link) x = (2 * l.id) + if x = fst l.a then 0 else 1

let channel_of g c =
  match Graph.link g (c / 2) with
  | None -> assert false
  | Some l ->
    let sa, _ = l.a and sb, _ = l.b in
    let from_switch, to_switch = if c land 1 = 0 then (sa, sb) else (sb, sa) in
    { Deadlock.link = l.id; from_switch; to_switch }

let check_tables g specs =
  let n = 2 * (Graph.max_link_id g + 1) in
  let adj = Array.make (max n 1) [] in
  let seen = Hashtbl.create 1024 in
  (* The non-loop link on port [p] of [s]. *)
  let link_on s p =
    match Graph.link_at g (s, p) with
    | None -> None
    | Some id -> (
      match Graph.link g id with
      | Some l when not (Graph.is_loop l) -> Some l
      | Some _ | None -> None)
  in
  List.iter
    (fun spec ->
      let s = Tables.switch spec in
      Tables.fold spec ~init:() ~f:(fun () ~in_port ~dst:_ e ->
          if (not (Tables.broadcast e)) && in_port <> 0 then
            match link_on s in_port with
            | None -> ()
            | Some l_in ->
              let c1 = channel_from l_in (fst (Graph.other_end l_in s)) in
              List.iter
                (fun p ->
                  match if p = 0 then None else link_on s p with
                  | None -> ()
                  | Some l_out ->
                    let c2 = channel_from l_out s in
                    if not (Hashtbl.mem seen (c1, c2)) then begin
                      Hashtbl.add seen (c1, c2) ();
                      adj.(c1) <- c2 :: adj.(c1)
                    end)
                (Port_vector.to_list (Tables.vector e))))
    specs;
  let colour = Array.make (max n 1) 0 and parent = Array.make (max n 1) (-1) in
  let exception Found of int * int in
  let rec dfs v =
    colour.(v) <- 1;
    List.iter
      (fun w ->
        if colour.(w) = 1 then raise (Found (v, w))
        else if colour.(w) = 0 then begin
          parent.(w) <- v;
          dfs w
        end)
      adj.(v);
    colour.(v) <- 2
  in
  try
    for v = 0 to n - 1 do
      if colour.(v) = 0 && adj.(v) <> [] then dfs v
    done;
    Deadlock.Acyclic
  with Found (v, w) ->
    let rec collect acc u = if u = w then u :: acc else collect (u :: acc) parent.(u) in
    Deadlock.Cycle (List.map (channel_of g) (collect [] v))

(* --- Deadlock certificate: rank the members by (level, UID); the up
   channel into switch [h] gets the key [m - 1 - rank h] and the down
   channel into [h] the key [m + rank h], [m] the member count.  A spec
   certifies when every dependency edge of every unicast entry strictly
   increases the key; an edge over a channel without a key (a link the
   orientation does not cover) refutes.  Entry by entry over
   [Tables.iter], with the ranking recomputed from the public tree. --- *)

let certifies g tree updown spec =
  let ranked = Array.of_list (Spanning_tree.members tree) in
  Array.sort
    (fun a b ->
      let c = Int.compare (Spanning_tree.level tree a) (Spanning_tree.level tree b) in
      if c <> 0 then c else Uid.compare (Graph.uid g a) (Graph.uid g b))
    ranked;
  let m = Array.length ranked in
  let rank = Hashtbl.create m in
  Array.iteri (fun i s -> Hashtbl.replace rank s i) ranked;
  let s = Tables.switch spec in
  let key_into ~up head =
    Option.map
      (fun r -> if head = up then m - 1 - r else m + r)
      (Hashtbl.find_opt rank head)
  in
  (* The keys of the channels into [s] and out of [s] on port [p], or
     [None] when no channel crosses the port (uncabled or a loop). *)
  let keys p =
    if p <= 0 || p > Graph.max_ports g then None
    else
      match Graph.link_at g (s, p) with
      | None -> None
      | Some id -> (
        match Graph.link g id with
        | None -> None
        | Some l when Graph.is_loop l -> None
        | Some l -> (
          let o, _ = Graph.other_end l s in
          match Updown.up_end updown id with
          | None -> Some (None, None)
          | Some up -> Some (key_into ~up s, key_into ~up o)))
  in
  let refutes ~in_port e =
    (not (Tables.broadcast e))
    &&
    match keys in_port with
    | None -> false
    | Some (k_in, _) ->
      List.exists
        (fun p ->
          match keys p with
          | None -> false
          | Some (_, k_out) -> (
            match (k_in, k_out) with
            | Some a, Some b -> a >= b
            | _ -> true))
        (Port_vector.to_list (Tables.vector e))
  in
  let ok = ref true in
  Tables.iter spec ~f:(fun ~in_port ~dst:_ e ->
      if refutes ~in_port e then ok := false);
  !ok

(* --- Convergence: the definition [Network.converged] walks in place,
   recomputed over a copy of the live graph.  Each live component of
   powered switches must be configured on its smallest member's epoch
   and complete report; the report must name as many switches as the
   component holds and, for each member, list exactly its live
   switch-to-switch links, compared as sorted lists.  Host ports are
   not compared. --- *)

let report_matches_live live comp r =
  List.for_all
    (fun s ->
      match Topology_report.find r (Graph.uid live s) with
      | None -> false
      | Some d ->
        let live_links =
          List.sort compare
            (List.map
               (fun (p, _, peer, pp) -> (p, Uid.to_int (Graph.uid live peer), pp))
               (Graph.neighbors live s))
        in
        let report_links =
          let acc = ref [] in
          Array.iteri
            (fun p desc ->
              match desc with
              | Topology_report.Switch_link { peer; peer_port } ->
                acc := (p, Uid.to_int peer, peer_port) :: !acc
              | Topology_report.Unused | Topology_report.Host_port -> ())
            d.Topology_report.ports;
          List.sort compare !acc
        in
        live_links = report_links)
    comp

let converged net =
  let module AP = Autonet_autopilot.Autopilot in
  let pilot = Autonet.Network.autopilot net in
  let component_converged live comp =
    List.for_all (fun s -> AP.configured (pilot s)) comp
    &&
    match comp with
    | [] -> true
    | first :: rest -> (
      let e0 = AP.epoch (pilot first) in
      match AP.complete_report (pilot first) with
      | None -> false
      | Some r0 ->
        Topology_report.size r0 = List.length comp
        && report_matches_live live comp r0
        && List.for_all
             (fun s ->
               Epoch.equal (AP.epoch (pilot s)) e0
               &&
               match AP.complete_report (pilot s) with
               | Some r -> Topology_report.equal r r0
               | None -> false)
             rest)
  in
  match Autonet.Network.live net with
  | _, [] -> false
  | live, comps -> List.for_all (component_converged live) comps

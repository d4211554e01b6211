open Autonet_core

(* All-pairs hop distances over the given adjacency (lists of
   (port, link, peer, peer_port)). *)
let bfs_distances n neighbors =
  let dist = Array.init n (fun _ -> Array.make n (-1)) in
  for src = 0 to n - 1 do
    let d = dist.(src) in
    d.(src) <- 0;
    let q = Queue.create () in
    Queue.add src q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun (_, _, peer, _) ->
          if d.(peer) < 0 then begin
            d.(peer) <- d.(v) + 1;
            Queue.add peer q
          end)
        (neighbors v)
    done
  done;
  dist

(* Rebuild each spec, replacing the routing entries for remote assigned
   addresses with the scheme's next hops and keeping everything else (the
   delivery entries, special addresses and the broadcast flood). *)
(* Keep the base spec's broadcast flood, specials and local delivery
   entries, but rebuild the remote-destination routing entries from scratch
   for every receiving port — the up*/down* base legitimately omits entries
   that its phase rule forbids, and the alternative schemes must not
   inherit those holes. *)
let with_unicast_scheme g assignment specs ~next_ports =
  List.map
    (fun spec ->
      let s = Tables.switch spec in
      let kept =
        Tables.fold spec ~init:[] ~f:(fun acc ~in_port ~dst e ->
            let keep =
              Tables.broadcast e
              ||
              match Address_assign.resolve assignment dst with
              | Some (d, _) -> d = s
              | None -> true
            in
            if keep then ((in_port, dst), e) :: acc else acc)
      in
      let in_ports = 0 :: Graph.used_ports g s in
      let routed =
        List.concat_map
          (fun (d, _) ->
            if d = s then []
            else
              List.concat_map
                (fun q ->
                  let dst = Address_assign.address assignment d q in
                  List.filter_map
                    (fun in_port ->
                      (* No U-turns: never forward back out the arrival
                         link. *)
                      let arrival_link = Graph.link_at g (s, in_port) in
                      let ports =
                        List.filter
                          (fun p ->
                            arrival_link = None
                            || Graph.link_at g (s, p) <> arrival_link)
                          (next_ports ~at:s ~dst:d)
                      in
                      if ports = [] then None
                      else
                        Some
                          ( (in_port, dst),
                            Tables.entry ~broadcast:false
                              (Autonet_net.Port_vector.of_list ports) ))
                    in_ports)
                (List.init (Graph.max_ports g + 1) Fun.id))
          (Address_assign.alist assignment)
      in
      Tables.of_entries ~switch:s (kept @ routed))
    specs

let base_specs g tree assignment =
  let updown = Updown.orient g tree in
  let routes = Routes.compute g tree updown in
  Tables.build_all g tree updown routes assignment

let tree_only g tree assignment =
  let tree_neighbors s =
    let parent =
      match Spanning_tree.parent tree s with
      | Some p -> [ (p.Spanning_tree.my_port, p.Spanning_tree.link, p.Spanning_tree.parent_switch, p.Spanning_tree.parent_port) ]
      | None -> []
    in
    let children =
      List.map (fun (port, link, child) -> (port, link, child, 0))
        (Spanning_tree.children tree s)
    in
    parent @ children
  in
  let n = Graph.switch_count g in
  let dist = bfs_distances n tree_neighbors in
  let next_ports ~at ~dst =
    if dist.(at).(dst) < 0 then []
    else
      List.filter_map
        (fun (port, _, peer, _) ->
          if dist.(peer).(dst) = dist.(at).(dst) - 1 then Some port else None)
        (tree_neighbors at)
  in
  with_unicast_scheme g assignment (base_specs g tree assignment) ~next_ports

let shortest_path g tree assignment =
  let n = Graph.switch_count g in
  let dist = bfs_distances n (Graph.neighbors g) in
  let next_ports ~at ~dst =
    if dist.(at).(dst) < 0 then []
    else
      List.filter_map
        (fun (port, _, peer, _) ->
          if dist.(peer).(dst) = dist.(at).(dst) - 1 then Some port else None)
        (Graph.neighbors g at)
  in
  with_unicast_scheme g assignment (base_specs g tree assignment) ~next_ports

let mean_path_length g specs assignment =
  let net = Verify.make g specs in
  let host_ports =
    List.map (fun (h : Graph.host_attachment) -> (h.switch, h.switch_port))
      (Graph.hosts g)
  in
  let total = ref 0 and count = ref 0 and failed = ref false in
  List.iter
    (fun src ->
      List.iter
        (fun (d, q) ->
          if src <> (d, q) then begin
            let dst = Address_assign.address assignment d q in
            match Verify.walk_unicast net ~from:src ~dst with
            | Verify.Delivered _, hops ->
              total := !total + hops;
              incr count
            | (Verify.Discarded _ | Verify.Looped), _ -> failed := true
          end)
        host_ports)
    host_ports;
  if !failed || !count = 0 then None
  else Some (float_of_int !total /. float_of_int !count)

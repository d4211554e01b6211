open Autonet_net

type delivery = { at_switch : Graph.switch; out_port : Graph.port }

type outcome =
  | Delivered of delivery
  | Discarded of Graph.switch
  | Looped

let pp_outcome ppf = function
  | Delivered { at_switch; out_port } ->
    Format.fprintf ppf "delivered at s%d.p%d" at_switch out_port
  | Discarded s -> Format.fprintf ppf "discarded at s%d" s
  | Looped -> Format.pp_print_string ppf "looped"

type net = { graph : Graph.t; specs : Tables.spec list }

let make graph specs = { graph; specs }

let spec_for net s =
  List.find_opt (fun spec -> Tables.switch spec = s) net.specs

(* Is this out-port a final delivery (control processor or host port) rather
   than another switch hop? *)
let delivery_port net s p =
  if p = 0 then true
  else
    match Graph.host_at net.graph (s, p) with
    | Some _ -> true
    | None -> (
      match Graph.link_at net.graph (s, p) with
      | Some _ -> false
      | None -> true (* unconnected port: the packet falls off the network *))

let next_switch net s p =
  match Graph.link_at net.graph (s, p) with
  | None -> None
  | Some l_id -> (
    match Graph.link net.graph l_id with
    | None -> None
    | Some l ->
      let peer, peer_port = Graph.other_end l s in
      Some (peer, peer_port))

let walk ~choose net ~from ~dst =
  let s0, p0 = from in
  let max_hops = 4 * Graph.switch_count net.graph in
  let rec step s in_port hops =
    if hops > max_hops then (Looped, hops)
    else
      match spec_for net s with
      | None -> (Discarded s, hops)
      | Some spec -> begin
        match choose (Tables.vector (Tables.lookup spec ~in_port ~dst)) with
        | None -> (Discarded s, hops)
        | Some p ->
          if delivery_port net s p then
            (Delivered { at_switch = s; out_port = p }, hops)
          else begin
            match next_switch net s p with
            | None -> (Discarded s, hops)
            | Some (peer, peer_port) -> step peer peer_port (hops + 1)
          end
      end
  in
  step s0 p0 0

let walk_unicast net ~from ~dst = walk ~choose:Port_vector.lowest net ~from ~dst

let walk_unicast_random net ~rng ~from ~dst =
  walk net ~from ~dst ~choose:(fun v ->
      if Port_vector.is_empty v then None
      else Some (Autonet_sim.Rng.pick rng (Port_vector.to_list v)))

let flood_broadcast net ~from ~dst =
  let deliveries = ref [] in
  let max_steps = 64 * Graph.switch_count net.graph in
  let steps = ref 0 in
  let queue = Queue.create () in
  Queue.add from queue;
  while (not (Queue.is_empty queue)) && !steps < max_steps do
    incr steps;
    let s, in_port = Queue.pop queue in
    match spec_for net s with
    | None -> ()
    | Some spec ->
      let ports = Tables.vector (Tables.lookup spec ~in_port ~dst) in
      for p = 0 to Port_vector.max_port do
        if Port_vector.mem p ports then
          if delivery_port net s p then
            deliveries := { at_switch = s; out_port = p } :: !deliveries
          else
            match next_switch net s p with
            | None -> ()
            | Some (peer, peer_port) -> Queue.add (peer, peer_port) queue
      done
  done;
  List.sort compare !deliveries

let all_hosts_reach_all net assignment =
  let host_ports =
    List.map (fun (h : Graph.host_attachment) -> (h.switch, h.switch_port))
      (Graph.hosts net.graph)
  in
  List.concat_map
    (fun src ->
      List.filter_map
        (fun (d, q) ->
          if src = (d, q) then None
          else
            match Address_assign.number assignment d with
            | None -> None
            | Some _ ->
              let dst = Address_assign.address assignment d q in
              let outcome, _ = walk_unicast net ~from:src ~dst in
              (match outcome with
              | Delivered { at_switch; out_port }
                when at_switch = d && out_port = q -> None
              | Delivered _ | Discarded _ | Looped -> Some (src, (d, q))))
        host_ports)
    host_ports

let all_ports = List.init (Port_vector.max_port + 1) Fun.id

let no_down_then_up net updown =
  List.for_all
    (fun spec ->
      let s = Tables.switch spec in
      Tables.fold spec ~init:true ~f:(fun acc ~in_port ~dst:_ entry ->
          acc
          &&
          (* Only check entries whose in-port is a "down" link arrival. *)
          match Graph.link_at net.graph (s, in_port) with
          | None -> true
          | Some l_in -> (
            match Updown.up_end updown l_in with
            | None -> true
            | Some up when up = s -> true (* arrived moving up *)
            | Some _ ->
              (* Arrived moving down: no out-port may be an up traversal. *)
              List.for_all
                (fun p ->
                  (not (Port_vector.mem p (Tables.vector entry)))
                  ||
                  match Graph.link_at net.graph (s, p) with
                  | None -> true
                  | Some l_out -> (
                    match
                      (Graph.link net.graph l_out, Updown.up_end updown l_out)
                    with
                    | Some l, Some _ ->
                      not (Updown.goes_up updown l ~from:s)
                    | _, _ -> true))
                all_ports)))
    net.specs

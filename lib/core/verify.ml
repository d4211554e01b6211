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

(* A (switch, port) pair is the int [(s lsl 4) lor p]: ports fit in 4
   bits.  [specs.(s)] is the first spec tagged [s], or an empty one;
   [next.(out)] is the state (switch, in-port) that out-port [out] leads
   to, or [delivers] (port 0, a host port, or an uncabled port the packet
   falls off at). *)
type net = { graph : Graph.t; specs : Tables.spec array; next : int array }

let delivers = -1

let make graph specs =
  let n = Graph.switch_count graph in
  let index = Array.init n (fun s -> Tables.empty ~switch:s) in
  List.iter
    (fun spec ->
      let s = Tables.switch spec in
      if s >= 0 && s < n then index.(s) <- spec)
    (List.rev specs);
  let next out =
    let s = out lsr 4 in
    match Graph.link_at graph (s, out land 15) with
    | None -> delivers
    | Some id ->
      let l = Option.get (Graph.link graph id) in
      let peer, peer_port = Graph.other_end l s in
      (peer lsl 4) lor peer_port
  in
  { graph; specs = index; next = Array.init (n lsl 4) next }

let entry net state ~dst =
  Tables.vector
    (Tables.lookup net.specs.(state lsr 4) ~in_port:(state land 15) ~dst)

(* The walk that leaves each state by the port [choose] picks from its
   entry.  It is deterministic, so one longer than the number of states
   revisits a state: a loop. *)
let walk net ~choose ~dst state =
  let rec step state hops =
    let s = state lsr 4 in
    match choose state (entry net state ~dst) with
    | None -> (Discarded s, hops)
    | Some p ->
      let h = net.next.((s lsl 4) lor p) in
      if h = delivers then (Delivered { at_switch = s; out_port = p }, hops)
      else if hops >= Array.length net.next then (Looped, hops)
      else step h (hops + 1)
  in
  step state 0

let walk_unicast net ~from:(s, p) ~dst =
  walk net ~choose:(fun _ -> Port_vector.lowest) ~dst ((s lsl 4) lor p)

(* Sweep verdicts.  The sweep marks a state [stamp lor verdict], with a
   stamp per destination, so it never clears the marks. *)
let pending = 1
let good = 2
let bad = 3

let undelivered net ~sources ~dsts =
  let marks = Array.make (Array.length net.next) 0 in
  let failed = ref [] in
  List.iteri
    (fun i (((ds, dp) as dst), addr) ->
      let target = (ds lsl 4) lor dp and stamp = (i + 1) lsl 2 in
      (* A state is good when every port of its entry delivers at [dst]
         or leads to a good state; one met again while pending is on a
         cycle.  [all_good out b] reads the entry's bits [b] from
         out-port [out] up. *)
      let rec good_from state =
        let m = marks.(state) in
        if m land lnot 3 = stamp then m land 3 = good
        else begin
          marks.(state) <- stamp lor pending;
          let b = (entry net state ~dst:addr :> int) in
          let ok = b <> 0 && all_good (state land lnot 15) b in
          marks.(state) <- stamp lor (if ok then good else bad);
          ok
        end
      and all_good out b =
        b = 0 || (b land 1 = 0 || port_good out) && all_good (out + 1) (b lsr 1)
      and port_good out =
        let h = net.next.(out) in
        if h = delivers then out = target else good_from h
      in
      (* The sweep judged every port of a bad state up to its first bad
         one, so [port_good] only reads verdicts here. *)
      let first_bad state v =
        List.find_opt
          (fun p -> not (port_good ((state land lnot 15) lor p)))
          (Port_vector.to_list v)
      in
      List.iteri
        (fun k ((s, p) as src) ->
          let state = (s lsl 4) lor p in
          if state <> target && not (good_from state) then
            let witness, _ = walk net ~choose:first_bad ~dst:addr state in
            failed := ((k, i), (src, dst, witness)) :: !failed)
        sources)
    dsts;
  List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !failed)

let flood_broadcast net ~from:(s0, p0) ~dst =
  let deliveries = ref [] in
  let max_steps = 64 * Graph.switch_count net.graph in
  let steps = ref 0 in
  let queue = Queue.create () in
  Queue.add ((s0 lsl 4) lor p0) queue;
  while (not (Queue.is_empty queue)) && !steps < max_steps do
    incr steps;
    let state = Queue.pop queue in
    let s = state lsr 4 and ports = entry net state ~dst in
    for p = 0 to Port_vector.max_port do
      if Port_vector.mem p ports then
        let h = net.next.((s lsl 4) lor p) in
        if h = delivers then
          deliveries := { at_switch = s; out_port = p } :: !deliveries
        else Queue.add h queue
    done
  done;
  List.sort compare !deliveries

let all_hosts_reach_all net assignment =
  let host_ports =
    List.map (fun (h : Graph.host_attachment) -> (h.switch, h.switch_port))
      (Graph.hosts net.graph)
  in
  let numbered =
    List.filter (fun (d, _) -> Address_assign.number assignment d <> None)
      host_ports
  in
  let address ((d, q) as dst) = (dst, Address_assign.address assignment d q) in
  List.map
    (fun (src, dst, _) -> (src, dst))
    (undelivered net ~sources:host_ports ~dsts:(List.map address numbered))

let all_ports = List.init (Port_vector.max_port + 1) Fun.id

let no_down_then_up net updown =
  List.for_all
    (fun spec ->
      let s = Tables.switch spec in
      (* A verdict ignores the address: each distinct page is read once. *)
      not
        (Tables.exists_entry spec ~f:(fun ~in_port entry ->
             (* Only entries whose in-port is a "down" link arrival. *)
             match Graph.link_at net.graph (s, in_port) with
             | None -> false
             | Some l_in -> (
               match Updown.up_end updown l_in with
               | None -> false
               | Some up when up = s -> false (* arrived moving up *)
               | Some _ ->
                 (* Arrived moving down: no out-port may be an up traversal. *)
                 List.exists
                   (fun p ->
                     Port_vector.mem p (Tables.vector entry)
                     &&
                     match Graph.link_at net.graph (s, p) with
                     | None -> false
                     | Some l_out -> (
                       match
                         (Graph.link net.graph l_out, Updown.up_end updown l_out)
                       with
                       | Some l, Some _ -> Updown.goes_up updown l ~from:s
                       | _, _ -> false))
                   all_ports))))
    (Array.to_list net.specs)

open Autonet_net

type entry = { broadcast : bool; ports : int list }

let discard = { broadcast = true; ports = [] }

let equal_entry a b = a.broadcast = b.broadcast && a.ports = b.ports

let pp_entry ppf { broadcast; ports } =
  Format.fprintf ppf "{%s [%s]}"
    (if broadcast then "bcast" else "alt")
    (String.concat ";" (List.map string_of_int ports))

(* Entries are keyed by the int [(address lsl 4) lor in_port]: ports fit
   in 4 bits (max_ports <= 15, port 0 is the control processor) and
   addresses in 16, exactly the hardware's concatenated index — and an
   unboxed key spares a tuple allocation per probe. *)
let key ~in_port ~addr = (Short_address.to_int addr lsl 4) lor in_port

(* A spec stores the keys below [Array.length dense] in a flat array —
   the assigned-address block plus the constant low addresses, i.e.
   everything the synthesis loop writes per destination — and the rest
   (the four 0xFFFC+ special addresses, or arbitrary addresses fed to
   [of_entries]) in a small hashtable.  The [discard] record doubles as
   the dense array's "absent" sentinel by physical equality: [add_entry]
   and [set] never store an empty-port entry, so no entry can alias it. *)
type spec = {
  spec_switch : Graph.switch;
  dense : entry array;
  sparse : (int, entry) Hashtbl.t;
  mutable count : int;
}

let make_spec ~switch ~dense_size =
  { spec_switch = switch;
    dense = Array.make dense_size discard;
    sparse = Hashtbl.create 16;
    count = 0 }

(* Covers every key the builder produces for assigned addresses
   ([number lsl 4 lor q] with q < 16) plus the local-switch and one-hop
   rows (addresses 0..15, keys < 256). *)
let dense_size_for assignment =
  let m = Address_assign.max_number assignment in
  if m < 1 then 256 else (m + 1) lsl 8

let switch t = t.spec_switch

(* 256 dense keys hold the constant and one-hop rows (addresses 0..15). *)
let empty ~switch = make_spec ~switch ~dense_size:256

let copy ~switch t =
  { spec_switch = switch;
    dense = Array.copy t.dense;
    sparse = Hashtbl.copy t.sparse;
    count = t.count }

let lookup t ~in_port ~dst =
  let k = key ~in_port ~addr:dst in
  if k < Array.length t.dense then t.dense.(k)
  else
    match Hashtbl.find_opt t.sparse k with
    | Some e -> e
    | None -> discard

let entry_count t = t.count

let iter t ~f =
  let dense = t.dense in
  for k = 0 to Array.length dense - 1 do
    let e = dense.(k) in
    if e != discard then
      f ~in_port:(k land 0xF) ~dst:(Short_address.of_int (k lsr 4)) e
  done;
  Hashtbl.iter
    (fun k e -> f ~in_port:(k land 0xF) ~dst:(Short_address.of_int (k lsr 4)) e)
    t.sparse

type route_mode = Minimal_routes | All_legal_routes

(* The in-ports of a switch that can actually receive a packet: the control
   processor, host ports, and ports on usable links. *)
let receiving_ports g updown s =
  let external_ports =
    List.filter_map
      (fun p ->
        match Graph.host_at g (s, p) with
        | Some _ -> Some p
        | None -> (
          match Graph.link_at g (s, p) with
          | Some l when Updown.usable updown l -> Some p
          | Some _ | None -> None))
      (Graph.used_ports g s)
  in
  0 :: external_ports

let is_host_port g s p = p <> 0 && Graph.host_at g (s, p) <> None

let host_ports g s =
  List.filter (fun p -> is_host_port g s p) (Graph.used_ports g s)

let add_entry t ~in_port ~addr e =
  if e.ports <> [] then begin
    let k = key ~in_port ~addr in
    if k < Array.length t.dense then begin
      if t.dense.(k) == discard then t.count <- t.count + 1;
      t.dense.(k) <- e
    end
    else begin
      if not (Hashtbl.mem t.sparse k) then t.count <- t.count + 1;
      Hashtbl.replace t.sparse k e
    end
  end

let remove_key t k =
  if k < Array.length t.dense then begin
    if t.dense.(k) != discard then begin
      t.dense.(k) <- discard;
      t.count <- t.count - 1
    end
  end
  else if Hashtbl.mem t.sparse k then begin
    Hashtbl.remove t.sparse k;
    t.count <- t.count - 1
  end

let remove t ~in_port ~dst = remove_key t (key ~in_port ~addr:dst)

let set t ~in_port ~dst e =
  if e.ports = [] then remove t ~in_port ~dst
  else add_entry t ~in_port ~addr:dst e

let row t ~in_port =
  let acc = ref [] in
  Hashtbl.iter
    (fun k e -> if k land 0xF = in_port then acc := (k lsr 4, e) :: !acc)
    t.sparse;
  for a = (Array.length t.dense - 1 - in_port) asr 4 downto 0 do
    let e = t.dense.((a lsl 4) lor in_port) in
    if e != discard then acc := (a, e) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc
  |> List.map (fun (a, e) -> (Short_address.of_int a, e))

(* Ascending by (in-port, address), for printing and comparison. *)
let fold t ~init ~f =
  let acc = ref init in
  for in_port = 0 to 15 do
    List.iter (fun (dst, e) -> acc := f !acc ~in_port ~dst e) (row t ~in_port)
  done;
  !acc

(* The constant (0x0000, one-hop, loopback) and broadcast rows, shared by
   the fast and reference builders: they are a few dozen entries and were
   never the hot part. *)
let constant_and_broadcast_entries g tree s ~spec ~in_ports =
  List.iter
    (fun p ->
      if is_host_port g s p then begin
        add_entry spec ~in_port:p ~addr:Short_address.local_switch
          { broadcast = false; ports = [ 0 ] };
        add_entry spec ~in_port:p ~addr:Short_address.loopback
          { broadcast = false; ports = [ p ] }
      end)
    in_ports;
  for k = 1 to Graph.max_ports g do
    let addr = Short_address.one_hop ~port:k in
    List.iter
      (fun in_port ->
        if in_port = 0 then
          (* From the control processor: out the numbered local port, when
             that port is cabled to something that can hear us. *)
          (match Graph.link_at g (s, k) with
          | Some _ ->
            add_entry spec ~in_port ~addr { broadcast = false; ports = [ k ] }
          | None -> ())
        else add_entry spec ~in_port ~addr { broadcast = false; ports = [ 0 ] })
      in_ports
  done;
  (* --- Broadcast flooding over the spanning tree. --- *)
  let children_ports =
    List.map (fun (p, _, _) -> p) (Spanning_tree.children tree s)
  in
  let parent_port =
    match Spanning_tree.parent tree s with
    | Some pr -> Some pr.my_port
    | None -> None
  in
  let local_delivery addr_cls =
    match addr_cls with
    | `All -> 0 :: host_ports g s
    | `Switches -> [ 0 ]
    | `Hosts -> host_ports g s
  in
  let tree_child_port p = List.mem p children_ports in
  List.iter
    (fun (addr, cls) ->
      List.iter
        (fun in_port ->
          let entry_ports =
            if in_port = 0 || is_host_port g s in_port then
              (* Origination: head for the root, or flood if we are it. *)
              match parent_port with
              | Some pp -> [ pp ]
              | None -> children_ports @ local_delivery cls
            else if tree_child_port in_port then
              match parent_port with
              | Some pp -> [ pp ]
              | None ->
                (* Root: flood down every child (including the arrival
                   child, whose subtree has not seen the packet on the way
                   down) plus local delivery. *)
                children_ports @ local_delivery cls
            else if parent_port = Some in_port then
              children_ports @ local_delivery cls
            else [] (* non-tree link: broadcasts never travel here *)
          in
          (* The sender receives its own broadcast too (at the root the
             origination row includes the arrival port; elsewhere the copy
             returns with the down-phase flood): hosts filter by UID, as
             the paper's receiving-host rules require. *)
          let ports = List.sort_uniq Int.compare entry_ports in
          add_entry spec ~in_port ~addr { broadcast = true; ports })
        in_ports)
    [ (Short_address.broadcast_all, `All);
      (Short_address.broadcast_switches, `Switches);
      (Short_address.broadcast_hosts, `Hosts) ]

(* Per-task scratch for the builder, drawn from the per-domain arena so a
   pool worker reuses it across every switch of every epoch: the in-port
   list as a flat array and the arrival-phase selector per in-port. *)
module Arena = Autonet_parallel.Pool.Arena

let slot_ip = Arena.register ()
let slot_sel = Arena.register ()

let build ?(mode = Minimal_routes) g tree updown routes assignment s =
  if not (Spanning_tree.mem tree s) then
    invalid_arg "Tables.build: switch not in the configured component";
  let spec = make_spec ~switch:s ~dense_size:(dense_size_for assignment) in
  let in_ports = receiving_ports g updown s in
  let next_hops =
    match mode with
    | Minimal_routes -> Routes.next_hops routes
    | All_legal_routes -> Routes.all_next_hops routes
  in
  (* --- Assigned unicast destinations. ---
     Every port address of every member switch gets an entry at remote
     switches (the route depends only on the destination switch), so a
     host plugged in after this reconfiguration is already reachable from
     afar; delivery at the destination switch itself happens only for the
     control processor and the ports known to hold hosts ("if the address
     is not in use the packet is discarded").

     The route out of [s] depends only on the arrival phase and the
     destination switch, so the (at most two) next-hop entries per
     destination are shared across the whole 16-address block, and each
     (in-port, address) pair costs one store into the dense array. *)
  (* The in-port array and the per-in-port phase selector come from the
     per-domain arena (reused across tasks and epochs).  The selector is
     a property of the in-port alone — it does not depend on the
     destination — so it is computed once here instead of once per
     destination as the old [entry_of_in] refill did. *)
  let arena = Arena.get () in
  let nip = List.length in_ports in
  let ip = Arena.ints arena slot_ip ~len:(Stdlib.max 1 nip) in
  List.iteri (fun i p -> ip.(i) <- p) in_ports;
  let sel = Arena.ints arena slot_sel ~len:(Stdlib.max 1 nip) in
  for i = 0 to nip - 1 do
    sel.(i) <-
      (match Routes.phase_of_arrival routes ~at:s ~in_port:ip.(i) with
      | Routes.Up -> 0
      | Routes.Down -> 1)
  done;
  let dense = spec.dense in
  List.iter
    (fun d ->
      if s = d then begin
        let hosts_of_d = host_ports g d in
        for q = 0 to Graph.max_ports g do
          if q = 0 || List.mem q hosts_of_d then begin
            let addr = Address_assign.address assignment d q in
            let e = { broadcast = false; ports = [ q ] } in
            for i = 0 to nip - 1 do
              add_entry spec ~in_port:ip.(i) ~addr e
            done
          end
        done
      end
      else begin
        let entry_for phase =
          let hops = next_hops ~at:s ~phase ~dst:d in
          let ports = List.sort_uniq Int.compare (List.map fst hops) in
          { broadcast = false; ports }
        in
        let e_up = entry_for Routes.Up and e_down = entry_for Routes.Down in
        if e_up.ports <> [] || e_down.ports <> [] then begin
          (* [address d 0] = number lsl 4; the whole block lives below
             [dense_size_for assignment] by construction. *)
          let base =
            Short_address.to_int (Address_assign.address assignment d 0)
          in
          for q = 0 to Graph.max_ports g do
            let k_addr = (base lor q) lsl 4 in
            for i = 0 to nip - 1 do
              let e = if sel.(i) = 0 then e_up else e_down in
              if e.ports <> [] then begin
                let k = k_addr lor ip.(i) in
                if dense.(k) == discard then spec.count <- spec.count + 1;
                dense.(k) <- e
              end
            done
          done
        end
      end)
    (Spanning_tree.members tree);
  constant_and_broadcast_entries g tree s ~spec ~in_ports;
  spec

let patch ?(mode = Minimal_routes) g updown routes assignment ~prev
    ~switch:s ~removed_numbers ~added_dests =
  (* [s] is the switch's index in [g]; [prev.spec_switch] was its index in
     the previous epoch's graph, which membership changes may have
     shifted.  The copied table content is keyed by switch number, which
     the delta classifier proved stable, so only the identity needs
     remapping. *)
  let spec = copy ~switch:s prev in
  (* Strip every entry of a departed switch number: a fresh build of this
     switch writes nothing at those addresses.  Assigned numbers are >= 1,
     so their 256-key blocks never overlap the constant and one-hop rows
     below key 256, nor the sparse 0xFFFC+ specials. *)
  List.iter
    (fun number ->
      for k = number lsl 8 to (number lsl 8) lor 0xFF do
        remove_key spec k
      done)
    removed_numbers;
  (* Add the address blocks of brand-new destinations, exactly as [build]
     renders a remote destination.  [add_entry] keeps the spec well-formed
     even when a new number lies beyond the copied dense block: the
     overflow lands in the sparse table, which lookups cannot tell apart. *)
  if added_dests <> [] then begin
    let in_ports = receiving_ports g updown s in
    let next_hops =
      match mode with
      | Minimal_routes -> Routes.next_hops routes
      | All_legal_routes -> Routes.all_next_hops routes
    in
    let sel =
      List.map
        (fun p -> (p, Routes.phase_of_arrival routes ~at:s ~in_port:p))
        in_ports
    in
    List.iter
      (fun d ->
        if d = s then
          invalid_arg "Tables.patch: a switch cannot gain itself as a dest";
        let entry_for phase =
          let hops = next_hops ~at:s ~phase ~dst:d in
          { broadcast = false;
            ports = List.sort_uniq Int.compare (List.map fst hops) }
        in
        let e_up = entry_for Routes.Up and e_down = entry_for Routes.Down in
        if e_up.ports <> [] || e_down.ports <> [] then begin
          let base =
            Short_address.to_int (Address_assign.address assignment d 0)
          in
          for q = 0 to Graph.max_ports g do
            let addr = Short_address.of_int (base lor q) in
            List.iter
              (fun (in_port, ph) ->
                let e =
                  match ph with Routes.Up -> e_up | Routes.Down -> e_down
                in
                add_entry spec ~in_port ~addr e)
              sel
          done
        end)
      added_dests
  end;
  spec

let equal_spec a b =
  a.spec_switch = b.spec_switch
  && a.count = b.count
  &&
  let canon t =
    fold t ~init:[] ~f:(fun acc ~in_port ~dst e ->
        ((in_port, Short_address.to_int dst), e) :: acc)
  in
  canon a = canon b

let of_entries ~switch entries_list =
  let spec =
    { spec_switch = switch;
      dense = [||];
      sparse = Hashtbl.create (Stdlib.max 8 (2 * List.length entries_list));
      count = 0 }
  in
  List.iter
    (fun ((p, a), e) -> add_entry spec ~in_port:p ~addr:a e)
    entries_list;
  spec

let build_all ?mode ?pool g tree updown routes assignment =
  let members = Spanning_tree.members tree in
  match pool with
  | Some pool ->
    (* Force the graph's lazily-built adjacency cache (and keep it forced)
       before fanning out: workers must only read the graph.  One-domain
       pools run the map serially inside [parallel_map_array]; going
       through the pool regardless keeps its call/item metrics identical
       for every domain count.

       A switch's build cost scales with its receiving-port count (the
       inner loops run once per in-port for every destination block), so
       the cabled/host port count drives the batch boundaries: hub-heavy
       topologies no longer leave one domain holding the whole hub. *)
    (match members with m :: _ -> ignore (Graph.degree g m) | [] -> ());
    let arr = Array.of_list members in
    Array.to_list
      (Autonet_parallel.Pool.parallel_map_array pool
         ~costs:(fun i -> 1 + List.length (Graph.used_ports g arr.(i)))
         (fun s -> build ?mode g tree updown routes assignment s)
         arr)
  | None ->
    List.map (fun s -> build ?mode g tree updown routes assignment s) members

module Reference = struct
  (* The original builder, kept as the correctness oracle and benchmark
     baseline: it recomputes the arrival phase and the next-hop set from
     the list-based {!Routes.Reference} machinery for every
     (in-port, destination-address) pair. *)

  let build ?(mode = Minimal_routes) g tree updown routes assignment s =
    if not (Spanning_tree.mem tree s) then
      invalid_arg "Tables.build: switch not in the configured component";
    let spec = make_spec ~switch:s ~dense_size:(dense_size_for assignment) in
    let add = add_entry spec in
    let in_ports = receiving_ports g updown s in
    let next_hops =
      match mode with
      | Minimal_routes -> Routes.Reference.next_hops routes
      | All_legal_routes -> Routes.Reference.all_next_hops routes
    in
    List.iter
      (fun d ->
        let hosts_of_d = host_ports g d in
        for q = 0 to Graph.max_ports g do
          let addr = Address_assign.address assignment d q in
          List.iter
            (fun in_port ->
              if s = d then begin
                if q = 0 || List.mem q hosts_of_d then
                  add ~in_port ~addr { broadcast = false; ports = [ q ] }
              end
              else begin
                let phase =
                  Routes.Reference.phase_of_arrival routes ~at:s ~in_port
                in
                let hops = next_hops ~at:s ~phase ~dst:d in
                let ports = List.sort_uniq Int.compare (List.map fst hops) in
                add ~in_port ~addr { broadcast = false; ports }
              end)
            in_ports
        done)
      (Spanning_tree.members tree);
    constant_and_broadcast_entries g tree s ~spec ~in_ports;
    spec

  let build_all ?mode g tree updown routes assignment =
    List.map
      (fun s -> build ?mode g tree updown routes assignment s)
      (Spanning_tree.members tree)
end

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

(* A spec stores its keys in pages of 256: page [p] holds the keys
   [p lsl 8 .. p lsl 8 lor 0xFF], i.e. the 16 addresses of switch number
   [p] at all 16 in-ports.  Page 0 holds the constant and one-hop rows
   (addresses 0..15); the reserved and special addresses 0xFFF0..0xFFFF
   share one more page, [top].  A build keys [pages] up to the largest
   assigned number; a write beyond grows it.

   Pages are copy-on-write.  [owned.[p]] (and [top_owned]) says the page
   is this spec's alone, to write in place; any other page is first
   copied.  [copy] copies the page pointers and clears the marks on both
   sides, a build interns equal remote blocks without owning them, and
   [empty_page] — standing for every block without entries — is never
   owned, so it is never written.  The [discard] record doubles as the
   "absent" sentinel by physical equality: [add_entry] and [set] never
   store an empty-port entry, so no entry can alias it. *)
let page_size = 256

let top_page = 0xFFF

let empty_page = Array.make page_size discard

type spec = {
  spec_switch : Graph.switch;
  mutable pages : entry array array;
  mutable owned : Bytes.t;
  mutable top : entry array;
  mutable top_owned : bool;
  mutable count : int;
}

let make_spec ~switch ~pages =
  { spec_switch = switch;
    pages = Array.make pages empty_page;
    owned = Bytes.make pages '\000';
    top = empty_page;
    top_owned = false;
    count = 0 }

(* Page 0 plus one page per assigned switch number. *)
let pages_for assignment = Stdlib.max 1 (Address_assign.max_number assignment + 1)

let switch t = t.spec_switch

let empty ~switch = make_spec ~switch ~pages:0

let copy ~switch t =
  let n = Array.length t.pages in
  Bytes.fill t.owned 0 n '\000';
  t.top_owned <- false;
  { spec_switch = switch;
    pages = Array.copy t.pages;
    owned = Bytes.make n '\000';
    top = t.top;
    top_owned = false;
    count = t.count }

let page_at t p =
  if p < Array.length t.pages then Array.unsafe_get t.pages p
  else if p = top_page then t.top
  else empty_page

(* Grow the page array to hold page [p]. *)
let reserve t p =
  let n = Array.length t.pages in
  if p >= n then begin
    let pages = Array.make (p + 1) empty_page in
    Array.blit t.pages 0 pages 0 n;
    let owned = Bytes.make (p + 1) '\000' in
    Bytes.blit t.owned 0 owned 0 n;
    t.pages <- pages;
    t.owned <- owned
  end

(* Page [p], made this spec's own (copied if shared) for writing. *)
let writable t p =
  if p = top_page then begin
    if not t.top_owned then begin
      t.top <- Array.copy t.top;
      t.top_owned <- true
    end;
    t.top
  end
  else begin
    reserve t p;
    if Bytes.unsafe_get t.owned p = '\000' then begin
      t.pages.(p) <- Array.copy t.pages.(p);
      Bytes.unsafe_set t.owned p '\001'
    end;
    t.pages.(p)
  end

let page_count page =
  if page == empty_page then 0
  else Array.fold_left (fun n e -> if e != discard then n + 1 else n) 0 page

let lookup t ~in_port ~dst =
  let k = key ~in_port ~addr:dst in
  Array.unsafe_get (page_at t (k lsr 8)) (k land 0xFF)

let entry_count t = t.count

let iter t ~f =
  let iter_page p page =
    if page != empty_page then
      for i = 0 to page_size - 1 do
        let e = Array.unsafe_get page i in
        if e != discard then
          f ~in_port:(i land 0xF)
            ~dst:(Short_address.of_int ((p lsl 4) lor (i lsr 4)))
            e
      done
  in
  Array.iteri iter_page t.pages;
  iter_page top_page t.top

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
    let page = writable t (k lsr 8) and i = k land 0xFF in
    if page.(i) == discard then t.count <- t.count + 1;
    page.(i) <- e
  end

let remove t ~in_port ~dst =
  let k = key ~in_port ~addr:dst in
  if (page_at t (k lsr 8)).(k land 0xFF) != discard then begin
    (writable t (k lsr 8)).(k land 0xFF) <- discard;
    t.count <- t.count - 1
  end

let set t ~in_port ~dst e =
  if e.ports = [] then remove t ~in_port ~dst
  else add_entry t ~in_port ~addr:dst e

let row t ~in_port =
  let acc = ref [] in
  let add p page =
    for q = 15 downto 0 do
      let e = page.((q lsl 4) lor in_port) in
      if e != discard then
        acc := (Short_address.of_int ((p lsl 4) lor q), e) :: !acc
    done
  in
  if t.top != empty_page then add top_page t.top;
  for p = Array.length t.pages - 1 downto 0 do
    let page = t.pages.(p) in
    if page != empty_page then add p page
  done;
  !acc

let has_row t ~in_port =
  let in_page page =
    let rec scan i = i < page_size && (page.(i) != discard || scan (i + 16)) in
    page != empty_page && scan in_port
  in
  Array.exists in_page t.pages || in_page t.top

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

let next_hops_of mode routes =
  match mode with
  | Minimal_routes -> Routes.next_hops routes
  | All_legal_routes -> Routes.all_next_hops routes

(* The in-ports as [ip.(0 .. nip-1)] and each one's arrival phase as
   [sel.(i)] (0 up, 1 down): a property of the in-port alone, computed
   once per switch rather than once per destination. *)
let fill_selectors routes s in_ports ~ip ~sel =
  List.iteri
    (fun i p ->
      ip.(i) <- p;
      sel.(i) <-
        (match Routes.phase_of_arrival routes ~at:s ~in_port:p with
        | Routes.Up -> 0
        | Routes.Down -> 1))
    in_ports

(* The route out of [s] toward a remote switch [d] depends only on the
   arrival phase: the up and the down entry. *)
let remote_entries next_hops s d =
  let entry_for phase =
    let hops = next_hops ~at:s ~phase ~dst:d in
    { broadcast = false; ports = List.sort_uniq Int.compare (List.map fst hops) }
  in
  (entry_for Routes.Up, entry_for Routes.Down)

(* The page of a remote destination's address block and its entry count,
   interned by the (up, down) pair: one switch's blocks toward all
   destinations with equal next-hop sets share one page.  [None] when
   the block has no entry. *)
let remote_page intern ~max_ports ~nip ~ip ~sel (e_up, e_down) =
  let k = (e_up.ports, e_down.ports) in
  match Hashtbl.find_opt intern k with
  | Some pc -> pc
  | None ->
    let page = Array.make page_size discard and n = ref 0 in
    for i = 0 to nip - 1 do
      let e = if sel.(i) = 0 then e_up else e_down in
      if e.ports <> [] then begin
        n := !n + max_ports + 1;
        for q = 0 to max_ports do
          page.((q lsl 4) lor ip.(i)) <- e
        done
      end
    done;
    let pc = if !n = 0 then None else Some (page, !n) in
    Hashtbl.add intern k pc;
    pc

(* Install the rendered block of switch number [p] as its page, unowned:
   it may be interned. *)
let place t p (page, n) =
  reserve t p;
  t.count <- t.count - page_count t.pages.(p) + n;
  t.pages.(p) <- page;
  Bytes.set t.owned p '\000'

(* [address d 0] = number lsl 4: the page index of [d]'s block. *)
let number_of assignment d =
  Short_address.to_int (Address_assign.address assignment d 0) lsr 4

let build ?(mode = Minimal_routes) g tree updown routes assignment s =
  if not (Spanning_tree.mem tree s) then
    invalid_arg "Tables.build: switch not in the configured component";
  let spec = make_spec ~switch:s ~pages:(pages_for assignment) in
  let in_ports = receiving_ports g updown s in
  let next_hops = next_hops_of mode routes in
  (* --- Assigned unicast destinations. ---
     Every port address of every member switch gets an entry at remote
     switches (the route depends only on the destination switch), so a
     host plugged in after this reconfiguration is already reachable from
     afar; delivery at the destination switch itself happens only for the
     control processor and the ports known to hold hosts ("if the address
     is not in use the packet is discarded").

     The route out of [s] depends only on the arrival phase and the
     destination switch, so a remote destination's whole 16-address block
     is one page holding (at most) two distinct entries, and destinations
     with equal next-hop sets share that page.  The in-port array and the
     per-in-port phase selector come from the per-domain arena (reused
     across tasks and epochs). *)
  let arena = Arena.get () in
  let nip = List.length in_ports in
  let ip = Arena.ints arena slot_ip ~len:(Stdlib.max 1 nip) in
  let sel = Arena.ints arena slot_sel ~len:(Stdlib.max 1 nip) in
  fill_selectors routes s in_ports ~ip ~sel;
  let max_ports = Graph.max_ports g in
  let intern = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if s = d then begin
        let hosts_of_d = host_ports g d in
        for q = 0 to max_ports do
          if q = 0 || List.mem q hosts_of_d then begin
            let addr = Address_assign.address assignment d q in
            let e = { broadcast = false; ports = [ q ] } in
            for i = 0 to nip - 1 do
              add_entry spec ~in_port:ip.(i) ~addr e
            done
          end
        done
      end
      else
        match
          remote_page intern ~max_ports ~nip ~ip ~sel
            (remote_entries next_hops s d)
        with
        | Some pc -> place spec (number_of assignment d) pc
        | None -> ())
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
  (* Drop the page of every departed switch number: a fresh build of this
     switch writes nothing at those addresses.  Assigned numbers are >= 1,
     so their pages are never page 0 (the constant and one-hop rows) nor
     the special addresses' page. *)
  List.iter
    (fun number ->
      if number < Array.length spec.pages then place spec number (empty_page, 0))
    removed_numbers;
  (* Add the address blocks of brand-new destinations, exactly as [build]
     renders a remote destination; a number beyond the copied pages grows
     the page array. *)
  if added_dests <> [] then begin
    let in_ports = receiving_ports g updown s in
    let next_hops = next_hops_of mode routes in
    let nip = List.length in_ports in
    let ip = Array.make nip 0 and sel = Array.make nip 0 in
    fill_selectors routes s in_ports ~ip ~sel;
    let max_ports = Graph.max_ports g in
    let intern = Hashtbl.create 16 in
    List.iter
      (fun d ->
        if d = s then
          invalid_arg "Tables.patch: a switch cannot gain itself as a dest";
        match
          remote_page intern ~max_ports ~nip ~ip ~sel
            (remote_entries next_hops s d)
        with
        | Some pc -> place spec (number_of assignment d) pc
        | None -> ())
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
  let spec = empty ~switch in
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
    let spec = make_spec ~switch:s ~pages:(pages_for assignment) in
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

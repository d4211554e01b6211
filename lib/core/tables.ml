open Autonet_net
module PV = Port_vector

(* The hardware word: the port vector in bits 0..15, the broadcast flag in
   bit 16 — [discard] is the flag alone. *)
type entry = int

let discard = 1 lsl 16
let entry ~broadcast (v : PV.t) = (v :> int) lor if broadcast then discard else 0
let vector e = PV.of_int (e land 0xFFFF)
let broadcast e = e land discard <> 0
let has_ports e = e land 0xFFFF <> 0
let unicast v = entry ~broadcast:false v

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
   owned, so it is never written.  A slot holding [discard] is absent:
   [add_entry] and [set] never store a word without ports. *)
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
  else Array.fold_left (fun n e -> if e <> discard then n + 1 else n) 0 page

let lookup t ~in_port ~dst =
  let k = key ~in_port ~addr:dst in
  Array.unsafe_get (page_at t (k lsr 8)) (k land 0xFF)

let entry_count t = t.count

(* Scan each physically distinct page once: [f] ignores the address, so
   a page's verdict does not depend on which blocks share it.  Builds
   intern remote blocks, so a table usually holds a few distinct pages;
   the pages already scanned are remembered up to [exists_memo], and a
   page beyond that is scanned again, which costs time, not answers. *)
let exists_memo = 64

let exists_entry t ~f =
  let seen = ref [] and n_seen = ref 0 in
  let rec scan_from page i =
    i < page_size
    && (let e = Array.unsafe_get page i in
        (e <> discard && f ~in_port:(i land 0xF) e) || scan_from page (i + 1))
  in
  let scan page =
    page != empty_page
    && (not (List.memq page !seen))
    && begin
      if !n_seen < exists_memo then begin
        seen := page :: !seen;
        incr n_seen
      end;
      scan_from page 0
    end
  in
  Array.exists scan t.pages || scan t.top

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

let add_entry t ~in_port ~addr e =
  if has_ports e then begin
    let k = key ~in_port ~addr in
    let page = writable t (k lsr 8) and i = k land 0xFF in
    if page.(i) = discard then t.count <- t.count + 1;
    page.(i) <- e
  end

let remove t ~in_port ~dst =
  let k = key ~in_port ~addr:dst in
  if (page_at t (k lsr 8)).(k land 0xFF) <> discard then begin
    (writable t (k lsr 8)).(k land 0xFF) <- discard;
    t.count <- t.count - 1
  end

let set t ~in_port ~dst e =
  if has_ports e then add_entry t ~in_port ~addr:dst e
  else remove t ~in_port ~dst

let row t ~in_port =
  let acc = ref [] in
  let add p page =
    for q = 15 downto 0 do
      let e = page.((q lsl 4) lor in_port) in
      if e <> discard then
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
    let rec scan i = i < page_size && (page.(i) <> discard || scan (i + 16)) in
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

let to_cp = unicast (PV.singleton 0)

(* The constant block of the paper's address table, the same at every
   switch and in every table it loads: one-hop address k (1..max_ports)
   goes out port k from the control processor and to the control
   processor from every other in-port, cabled or not. *)
let draw_constant t ~max_ports =
  for k = 1 to max_ports do
    let addr = Short_address.one_hop ~port:k in
    add_entry t ~in_port:0 ~addr (unicast (PV.singleton k));
    for in_port = 1 to max_ports do
      add_entry t ~in_port ~addr to_cp
    done
  done

let constant ~switch ~max_ports =
  let t = make_spec ~switch ~pages:1 in
  draw_constant t ~max_ports;
  t

(* Broadcast flooding over the spanning tree: the rows of the switch's
   receiving ports other than its host ports, which [add_host_rows] adds.
   A few dozen entries, never the hot part of a build. *)
let broadcast_entries tree s ~spec ~in_ports =
  let children =
    PV.of_list (List.map (fun (p, _, _) -> p) (Spanning_tree.children tree s))
  in
  let parent_port =
    match Spanning_tree.parent tree s with
    | Some pr -> Some pr.my_port
    | None -> None
  in
  List.iter
    (fun (addr, local_delivery) ->
      let down = PV.union children local_delivery in
      List.iter
        (fun in_port ->
          let ports =
            if in_port = 0 || PV.mem in_port children then
              (* Origination, or a child's packet heading for the root:
                 up to the parent, or flood if we are the root — down
                 every child (including the arrival child, whose subtree
                 has not seen the packet on the way down) plus local
                 delivery. *)
              match parent_port with
              | Some pp -> PV.singleton pp
              | None -> down
            else if parent_port = Some in_port then down
            else PV.empty (* non-tree link: broadcasts never travel here *)
          in
          (* The sender receives its own broadcast too (at the root the
             origination row includes the arrival port; elsewhere the copy
             returns with the down-phase flood): hosts filter by UID, as
             the paper's receiving-host rules require. *)
          add_entry spec ~in_port ~addr (entry ~broadcast:true ports))
        in_ports)
    [ (Short_address.broadcast_all, PV.singleton 0);
      (Short_address.broadcast_switches, PV.singleton 0);
      (Short_address.broadcast_hosts, PV.empty) ]

(* --- Host ports (paper 6.5.3) ---  What [build] gives a host port, as
   edits of a spec (see the interface).  The loopback row at a port marks
   it as a host port. *)

let is_host_port t q =
  lookup t ~in_port:q ~dst:Short_address.loopback <> discard

(* Map [f] over the broadcast-all and broadcast-hosts ports of every
   in-port whose broadcast-all row delivers to the control processor: the
   floods that deliver locally. *)
let map_local_delivery t f =
  for i = 0 to 15 do
    if PV.mem 0 (vector (lookup t ~in_port:i ~dst:Short_address.broadcast_all))
    then
      List.iter
        (fun dst ->
          set t ~in_port:i ~dst
            (entry ~broadcast:true (f (vector (lookup t ~in_port:i ~dst)))))
        [ Short_address.broadcast_all; Short_address.broadcast_hosts ]
  done

(* Rewrite in-port [q]'s column of every page [keep] selects to [word
   page a] at address [a].  A page this spec owns is written in place;
   any other is copied once however many address blocks share it, and
   the copy replaces it in all of them, still shared and so not owned. *)
let recolumn t ~port:q ~keep ~word =
  let memo = ref [] in
  let redo ~owned page =
    match List.assq_opt page !memo with
    | Some r -> r
    | None ->
      let page' = if owned then page else Array.copy page in
      let n = ref 0 and changed = ref false in
      for a = 0 to 15 do
        let i = (a lsl 4) lor q and e = word page a in
        if e <> page.(i) then begin
          changed := true;
          if page.(i) <> discard then decr n;
          if e <> discard then incr n;
          page'.(i) <- e
        end
      done;
      let r = if !changed then Some (page', !n) else None in
      memo := (page, r) :: !memo;
      r
  in
  let update ~owned page install =
    if page != empty_page then
      match redo ~owned page with
      | Some (page', n) ->
        install page';
        t.count <- t.count + n
      | None -> ()
  in
  Array.iteri
    (fun p page ->
      if keep p then
        update ~owned:(Bytes.get t.owned p <> '\000') page (fun page' ->
            t.pages.(p) <- page'))
    t.pages;
  if keep top_page then
    update ~owned:t.top_owned t.top (fun top -> t.top <- top)

(* Give host ports [qs] of switch number [number] their rows, in-port 0's
   column copied in the pages [copied] selects: [build] renders the remote
   pages' host columns itself and adds all its host ports in one call. *)
let add_host_rows t ~number ~ports:qs ~copied =
  let own p = Short_address.assigned ~switch_number:number ~port:p in
  map_local_delivery t (PV.union (PV.of_list qs));
  (* A host port's address is delivered wherever the control processor's
     is: at every receiving in-port. *)
  List.iter
    (fun q ->
      let deliver = unicast (PV.singleton q) in
      for i = 0 to 15 do
        if lookup t ~in_port:i ~dst:(own 0) <> discard then
          add_entry t ~in_port:i ~addr:(own q) deliver
      done)
    qs;
  List.iter
    (fun q ->
      (* Packets from [q] go where the control processor's go: both enter
         in the Up phase. *)
      recolumn t ~port:q ~keep:copied ~word:(fun page a -> page.(a lsl 4));
      add_entry t ~in_port:q ~addr:Short_address.loopback
        (unicast (PV.singleton q));
      add_entry t ~in_port:q ~addr:Short_address.local_switch to_cp)
    qs

(* Page 0 holds the constant block at every in-port and, at a host port,
   the local-switch row: the only page-0 row an add writes or a removal
   clears. *)
let add_host_port t ~number ~port:q =
  if not (is_host_port t q) then
    add_host_rows t ~number ~ports:[ q ] ~copied:(fun p -> p <> 0)

let remove_host_port t ~number ~port:q =
  if is_host_port t q then begin
    recolumn t ~port:q ~keep:(fun p -> p <> 0) ~word:(fun _ _ -> discard);
    remove t ~in_port:q ~dst:Short_address.local_switch;
    for i = 0 to 15 do
      remove t ~in_port:i
        ~dst:(Short_address.assigned ~switch_number:number ~port:q)
    done;
    map_local_delivery t (PV.remove q)
  end

let next_hops_of mode routes =
  match mode with
  | Minimal_routes -> Routes.next_hops routes
  | All_legal_routes -> Routes.all_next_hops routes

(* The arrival phase of each in-port of [ip] (0 up, 1 down): a property
   of the in-port alone, computed once per switch rather than once per
   destination. *)
let selectors routes s ip =
  Array.map
    (fun p ->
      match Routes.phase_of_arrival routes ~at:s ~in_port:p with
      | Routes.Up -> 0
      | Routes.Down -> 1)
    ip

(* The route out of [s] toward a remote switch [d] in one arrival phase. *)
let remote_entry next_hops s d phase =
  unicast
    (List.fold_left
       (fun v (p, _) -> PV.add p v)
       PV.empty (next_hops ~at:s ~phase ~dst:d))

(* The page of a remote destination's address block and its entry count,
   interned by the (up, down) word pair, packed in one int: one switch's
   blocks toward all destinations with equal next-hop sets share one
   page.  [None] when the block has no entry. *)
let remote_page intern ~max_ports ~ip ~sel ~up ~down =
  let k = (up lsl 17) lor down in
  match Hashtbl.find_opt intern k with
  | Some pc -> pc
  | None ->
    let page = Array.make page_size discard and n = ref 0 in
    for i = 0 to Array.length ip - 1 do
      let e = if sel.(i) = 0 then up else down in
      if has_ports e then begin
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

(* --- Assigned unicast destinations. ---
   Every port address of every member switch gets an entry at remote
   switches (the route depends only on the destination switch), so a host
   plugged in after this reconfiguration is already reachable from afar;
   delivery at the destination switch itself happens only for the control
   processor and the ports known to hold hosts ("if the address is not in
   use the packet is discarded").

   The route out of [s] depends only on the arrival phase and the
   destination switch, so a remote destination's whole 16-address block is
   one page holding (at most) two distinct entries, and destinations with
   equal next-hop sets share that page.  [place_remote] installs the
   blocks of [dests] other than [s] itself. *)
let place_remote spec ~next_hops g ~in_ports routes assignment s dests =
  let ip = Array.of_list in_ports in
  let sel = selectors routes s ip in
  let max_ports = Graph.max_ports g in
  let intern = Hashtbl.create 16 in
  List.iter
    (fun d ->
      if s <> d then
        match
          remote_page intern ~max_ports ~ip ~sel
            ~up:(remote_entry next_hops s d Routes.Up)
            ~down:(remote_entry next_hops s d Routes.Down)
        with
        | Some pc -> place spec (number_of assignment d) pc
        | None -> ())
    dests

let build ?(mode = Minimal_routes) g tree updown routes assignment s =
  if not (Spanning_tree.mem tree s) then
    invalid_arg "Tables.build: switch not in the configured component";
  let spec = make_spec ~switch:s ~pages:(pages_for assignment) in
  let in_ports = receiving_ports g updown s in
  place_remote spec ~next_hops:(next_hops_of mode routes) g ~in_ports routes
    assignment s (Spanning_tree.members tree);
  (* The switch's own rows: the control processor's address delivered
     from every receiving port, the constant and broadcast rows, then each
     host port's rows exactly as a host port enabled later gets them. *)
  let hosts, switch_ports =
    List.partition (fun p -> p <> 0 && Graph.host_at g (s, p) <> None) in_ports
  in
  List.iter
    (fun in_port ->
      add_entry spec ~in_port
        ~addr:(Address_assign.address assignment s 0)
        to_cp)
    switch_ports;
  draw_constant spec ~max_ports:(Graph.max_ports g);
  broadcast_entries tree s ~spec ~in_ports:switch_ports;
  let number = number_of assignment s in
  add_host_rows spec ~number ~ports:hosts
    ~copied:(fun p -> p = number || p = top_page);
  spec

let patch g updown routes assignment ~prev ~switch:s ~removed_numbers
    ~added_dests =
  if List.mem s added_dests then
    invalid_arg "Tables.patch: a switch cannot gain itself as a dest";
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
  if added_dests <> [] then
    place_remote spec ~next_hops:(Routes.next_hops routes) g
      ~in_ports:(receiving_ports g updown s) routes assignment s added_dests;
  spec

(* Absent slots hold [discard] in every page, the shared empty one too,
   so equal entries are equal pages. *)
let equal_page (a : entry array) (b : entry array) =
  let rec from i =
    i = page_size || (Array.unsafe_get a i = Array.unsafe_get b i && from (i + 1))
  in
  a == b || from 0

(* A pair repeating the previous one is not compared again: a copy
   shares its pages, and a build interns its remote blocks, so two tables
   built alike pair the same few pages over and over, most often at
   consecutive switch numbers (84% of the chaos oracle's pairs on a
   flapped torus:16,16 with 2 hosts). *)
let equal_spec a b =
  let n = Stdlib.max (Array.length a.pages) (Array.length b.pages) in
  let rec same p last_a last_b =
    p = n
    ||
    let pa = page_at a p and pb = page_at b p in
    ((pa == last_a && pb == last_b) || equal_page pa pb) && same (p + 1) pa pb
  in
  a.spec_switch = b.spec_switch
  && equal_page a.top b.top
  && same 0 empty_page empty_page

let of_entries ~switch entries_list =
  let spec = empty ~switch in
  List.iter
    (fun ((p, a), e) -> add_entry spec ~in_port:p ~addr:a e)
    entries_list;
  spec

let build_all ?mode ?(pool = Autonet_parallel.Pool.serial) g tree updown
    routes assignment =
  (* Force the graph's lazily-built adjacency cache (and keep it forced)
     before fanning out: workers must only read the graph. *)
  let members = Array.of_list (Spanning_tree.members tree) in
  if Array.length members > 0 then ignore (Graph.degree g members.(0));
  Array.to_list
    (Autonet_parallel.Pool.parallel_map_array pool
       (fun s -> build ?mode g tree updown routes assignment s)
       members)

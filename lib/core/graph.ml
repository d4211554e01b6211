open Autonet_net

type switch = int
type port = int
type endpoint = switch * port
type link_id = int

type link = { id : link_id; a : endpoint; b : endpoint }

type host_attachment = {
  host_uid : Uid.t;
  host_port : int;
  switch : switch;
  switch_port : port;
}

type occupant = Free | To_link of link_id | To_host of host_attachment

type switch_record = {
  sw_uid : Uid.t;
  ports : occupant array; (* index 0 unused: control processor *)
}

(* Packed adjacency snapshot: for switch [s], entries
   [off.(s) .. off.(s+1) - 1] of the four parallel arrays hold the
   same (port, link, peer, peer_port) tuples [neighbors] returns, in
   the same ascending-port order, but without any per-query allocation.
   Rebuilt lazily after any topology mutation. *)
type csr = {
  off : int array; (* length n_switches + 1 *)
  nb_port : int array;
  nb_link : int array;
  nb_peer : int array;
  nb_peer_port : int array;
}

type t = {
  max_ports : int;
  mutable switch_records : switch_record array;
  mutable n_switches : int;
  mutable links_by_id : link option array;
  mutable n_links : int; (* total ever allocated, including removed *)
  mutable by_uid : switch Uid.Map.t;
  mutable adjacency : csr option; (* invalidated on mutation *)
}

let create ?(max_ports = 12) () =
  if max_ports < 1 || max_ports > 15 then
    invalid_arg "Graph.create: max_ports must be in 1..15";
  { max_ports;
    switch_records = [||];
    n_switches = 0;
    links_by_id = [||];
    n_links = 0;
    by_uid = Uid.Map.empty;
    adjacency = None }

let max_ports t = t.max_ports

let grow_switches t =
  let cap = Array.length t.switch_records in
  if t.n_switches = cap then begin
    let placeholder = { sw_uid = Uid.of_int 0; ports = [||] } in
    let d = Array.make (Stdlib.max 8 (cap * 2)) placeholder in
    Array.blit t.switch_records 0 d 0 t.n_switches;
    t.switch_records <- d
  end

let grow_links t =
  let cap = Array.length t.links_by_id in
  if t.n_links = cap then begin
    let d = Array.make (Stdlib.max 8 (cap * 2)) None in
    Array.blit t.links_by_id 0 d 0 t.n_links;
    t.links_by_id <- d
  end

let add_switch t ~uid =
  if Uid.Map.mem uid t.by_uid then
    invalid_arg (Format.asprintf "Graph.add_switch: duplicate UID %a" Uid.pp uid);
  grow_switches t;
  let s = t.n_switches in
  t.switch_records.(s) <-
    { sw_uid = uid; ports = Array.make (t.max_ports + 1) Free };
  t.n_switches <- t.n_switches + 1;
  t.by_uid <- Uid.Map.add uid s t.by_uid;
  t.adjacency <- None;
  s

let switch_count t = t.n_switches
let switches t = List.init t.n_switches Fun.id

let check_switch t s =
  if s < 0 || s >= t.n_switches then
    invalid_arg (Printf.sprintf "Graph: no such switch %d" s)

let uid t s =
  check_switch t s;
  t.switch_records.(s).sw_uid

let switch_of_uid t u = Uid.Map.find_opt u t.by_uid

let check_port t ((s, p) : endpoint) =
  check_switch t s;
  if p < 1 || p > t.max_ports then
    invalid_arg (Printf.sprintf "Graph: port %d out of range on switch %d" p s)

let occupant t (s, p) = t.switch_records.(s).ports.(p)

let require_free t ep =
  check_port t ep;
  match occupant t ep with
  | Free -> ()
  | To_link _ | To_host _ ->
    let s, p = ep in
    invalid_arg (Printf.sprintf "Graph: port %d of switch %d is in use" p s)

let connect t ep_a ep_b =
  require_free t ep_a;
  if ep_a = ep_b then invalid_arg "Graph.connect: a port cannot cable to itself";
  require_free t ep_b;
  grow_links t;
  let id = t.n_links in
  let l = { id; a = ep_a; b = ep_b } in
  t.links_by_id.(id) <- Some l;
  t.n_links <- t.n_links + 1;
  let sa, pa = ep_a and sb, pb = ep_b in
  t.switch_records.(sa).ports.(pa) <- To_link id;
  t.switch_records.(sb).ports.(pb) <- To_link id;
  t.adjacency <- None;
  id

let attach_host t ~host_uid ~host_port ep =
  require_free t ep;
  let s, p = ep in
  t.switch_records.(s).ports.(p) <-
    To_host { host_uid; host_port; switch = s; switch_port = p }

let disconnect t id =
  if id < 0 || id >= t.n_links then invalid_arg "Graph.disconnect: bad link id";
  match t.links_by_id.(id) with
  | None -> ()
  | Some { a = sa, pa; b = sb, pb; _ } ->
    t.links_by_id.(id) <- None;
    t.switch_records.(sa).ports.(pa) <- Free;
    t.switch_records.(sb).ports.(pb) <- Free;
    t.adjacency <- None

let link t id =
  if id < 0 || id >= t.n_links then None else t.links_by_id.(id)

let links t =
  let acc = ref [] in
  for id = t.n_links - 1 downto 0 do
    match t.links_by_id.(id) with None -> () | Some l -> acc := l :: !acc
  done;
  !acc

let link_count t = List.length (links t)

(* The two occupancy queries tolerate port 0 and out-of-range ports (they
   return [None]) so that callers can probe "what is behind this port?"
   uniformly, control-processor port included. *)
let link_at t ((s, p) as ep) =
  check_switch t s;
  if p < 1 || p > t.max_ports then None
  else
    match occupant t ep with
    | To_link id -> Some id
    | Free | To_host _ -> None

let host_at t ((s, p) as ep) =
  check_switch t s;
  if p < 1 || p > t.max_ports then None
  else
    match occupant t ep with
    | To_host h -> Some h
    | Free | To_link _ -> None

let hosts t =
  let acc = ref [] in
  for s = t.n_switches - 1 downto 0 do
    for p = t.max_ports downto 1 do
      match t.switch_records.(s).ports.(p) with
      | To_host h -> acc := h :: !acc
      | Free | To_link _ -> ()
    done
  done;
  !acc

let host_attachments t u =
  List.filter (fun h -> Uid.equal h.host_uid u) (hosts t)

let is_loop l = fst l.a = fst l.b

let other_end l s =
  let sa, _ = l.a and sb, _ = l.b in
  if sa = s && sb = s then l.b
  else if sa = s then l.b
  else if sb = s then l.a
  else raise Not_found

let neighbors t s =
  check_switch t s;
  let acc = ref [] in
  for p = t.max_ports downto 1 do
    match t.switch_records.(s).ports.(p) with
    | To_link id -> begin
      match t.links_by_id.(id) with
      | Some l when not (is_loop l) ->
        let peer, peer_port = other_end l s in
        acc := (p, id, peer, peer_port) :: !acc
      | Some _ | None -> ()
    end
    | Free | To_host _ -> ()
  done;
  !acc

let build_adjacency t =
  let n = t.n_switches in
  let off = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    let deg = ref 0 in
    let ports = t.switch_records.(s).ports in
    for p = 1 to t.max_ports do
      match ports.(p) with
      | To_link id -> begin
        match t.links_by_id.(id) with
        | Some l when not (is_loop l) -> incr deg
        | Some _ | None -> ()
      end
      | Free | To_host _ -> ()
    done;
    off.(s + 1) <- !deg
  done;
  for s = 1 to n do
    off.(s) <- off.(s) + off.(s - 1)
  done;
  let total = off.(n) in
  let nb_port = Array.make total 0
  and nb_link = Array.make total 0
  and nb_peer = Array.make total 0
  and nb_peer_port = Array.make total 0 in
  for s = 0 to n - 1 do
    let i = ref off.(s) in
    let ports = t.switch_records.(s).ports in
    for p = 1 to t.max_ports do
      match ports.(p) with
      | To_link id -> begin
        match t.links_by_id.(id) with
        | Some l when not (is_loop l) ->
          let peer, peer_port = other_end l s in
          nb_port.(!i) <- p;
          nb_link.(!i) <- id;
          nb_peer.(!i) <- peer;
          nb_peer_port.(!i) <- peer_port;
          incr i
        | Some _ | None -> ()
      end
      | Free | To_host _ -> ()
    done
  done;
  { off; nb_port; nb_link; nb_peer; nb_peer_port }

let adjacency t =
  match t.adjacency with
  | Some c -> c
  | None ->
    let c = build_adjacency t in
    t.adjacency <- Some c;
    c

let iter_neighbors t s f =
  check_switch t s;
  let c = adjacency t in
  for i = c.off.(s) to c.off.(s + 1) - 1 do
    f c.nb_port.(i) c.nb_link.(i) c.nb_peer.(i) c.nb_peer_port.(i)
  done

let degree t s =
  check_switch t s;
  let c = adjacency t in
  c.off.(s + 1) - c.off.(s)

let max_link_id t = t.n_links - 1

let iter_links t f =
  for id = 0 to t.n_links - 1 do
    match t.links_by_id.(id) with None -> () | Some l -> f l
  done

let used_ports t s =
  check_switch t s;
  let acc = ref [] in
  for p = t.max_ports downto 1 do
    match t.switch_records.(s).ports.(p) with
    | Free -> ()
    | To_link _ | To_host _ -> acc := p :: !acc
  done;
  !acc

let free_port t s =
  check_switch t s;
  let rec find p =
    if p > t.max_ports then None
    else
      match t.switch_records.(s).ports.(p) with
      | Free -> Some p
      | To_link _ | To_host _ -> find (p + 1)
  in
  find 1

let components t =
  let seen = Array.make t.n_switches false in
  let comps = ref [] in
  for s = 0 to t.n_switches - 1 do
    if not seen.(s) then begin
      let comp = ref [] in
      let queue = Queue.create () in
      Queue.add s queue;
      seen.(s) <- true;
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        comp := v :: !comp;
        iter_neighbors t v (fun _ _ peer _ ->
            if not seen.(peer) then begin
              seen.(peer) <- true;
              Queue.add peer queue
            end)
      done;
      comps := List.sort Int.compare !comp :: !comps
    end
  done;
  List.sort
    (fun a b ->
      match (a, b) with
      | x :: _, y :: _ -> Int.compare x y
      | _, _ -> 0)
    !comps

let copy t =
  { t with
    switch_records =
      Array.map
        (fun r -> { r with ports = Array.copy r.ports })
        t.switch_records;
    links_by_id = Array.copy t.links_by_id }

let pp ppf t =
  Format.fprintf ppf "@[<v>graph: %d switches, %d links, %d host ports@," t.n_switches
    (link_count t)
    (List.length (hosts t));
  List.iter
    (fun l ->
      let sa, pa = l.a and sb, pb = l.b in
      Format.fprintf ppf "  link %d: s%d.p%d -- s%d.p%d%s@," l.id sa pa sb pb
        (if is_loop l then " (loop)" else ""))
    (links t);
  Format.fprintf ppf "@]"

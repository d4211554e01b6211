open Autonet_net
open Autonet_core

let default_uid i = Uid.of_int (0x1000 + i)

let shuffled_uids rng n =
  let perm = Array.init n Fun.id in
  Autonet_sim.Rng.shuffle rng perm;
  fun i ->
    if i < 0 || i >= n then invalid_arg "shuffled_uids: index out of range";
    default_uid perm.(i)

type t = { graph : Graph.t; name : string }

let with_switches ?(uid_of = default_uid) ~name n =
  let g = Graph.create () in
  let switches = Array.init n (fun i -> Graph.add_switch g ~uid:(uid_of i)) in
  ({ graph = g; name }, switches)

let connect_free g a b =
  match (Graph.free_port g a, Graph.free_port g b) with
  | Some pa, Some pb ->
    (* Reserve [pa] before asking for a free port on [b] when a = b would
       alias; Graph.connect validates both ends anyway. *)
    if a = b && pa = pb then
      invalid_arg "connect_free: cannot loop a port to itself";
    ignore (Graph.connect g (a, pa) (b, pb));
    true
  | _ -> false

let connect_exn g a b =
  if not (connect_free g a b) then
    invalid_arg
      (Printf.sprintf "topology builder: no free port between s%d and s%d" a b)

let line ?uid_of ~n () =
  if n < 1 then invalid_arg "line: n must be >= 1";
  let t, sw = with_switches ?uid_of ~name:(Printf.sprintf "line-%d" n) n in
  for i = 0 to n - 2 do
    connect_exn t.graph sw.(i) sw.(i + 1)
  done;
  t

let ring ?uid_of ~n () =
  if n < 3 then invalid_arg "ring: n must be >= 3";
  let t, sw = with_switches ?uid_of ~name:(Printf.sprintf "ring-%d" n) n in
  for i = 0 to n - 1 do
    connect_exn t.graph sw.(i) sw.((i + 1) mod n)
  done;
  t

let star ?uid_of ~leaves () =
  if leaves < 1 then invalid_arg "star: leaves must be >= 1";
  let t, sw =
    with_switches ?uid_of ~name:(Printf.sprintf "star-%d" leaves) (leaves + 1)
  in
  if leaves > Graph.max_ports t.graph then
    invalid_arg "star: more leaves than hub ports";
  for i = 1 to leaves do
    connect_exn t.graph sw.(0) sw.(i)
  done;
  t

let tree ?uid_of ~arity ~depth () =
  if arity < 1 || depth < 0 then invalid_arg "tree: bad parameters";
  let n =
    (* nodes of a complete arity-ary tree of the given depth *)
    let rec total d acc width =
      if d > depth then acc else total (d + 1) (acc + width) (width * arity)
    in
    total 0 0 1
  in
  let t, sw =
    with_switches ?uid_of ~name:(Printf.sprintf "tree-%dx%d" arity depth) n
  in
  (* Parent of node i (i >= 1) in heap order. *)
  for i = 1 to n - 1 do
    connect_exn t.graph sw.((i - 1) / arity) sw.(i)
  done;
  t

let grid ?uid_of ~rows ~cols ~wrap ~name () =
  if rows < 1 || cols < 1 then invalid_arg "grid: bad dimensions";
  let n = rows * cols in
  let t, sw = with_switches ?uid_of ~name n in
  let id r c = sw.((r * cols) + c) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c < cols - 1 then connect_exn t.graph (id r c) (id r (c + 1));
      if r < rows - 1 then connect_exn t.graph (id r c) (id (r + 1) c)
    done
  done;
  if wrap then begin
    if cols > 2 then
      for r = 0 to rows - 1 do
        connect_exn t.graph (id r (cols - 1)) (id r 0)
      done;
    if rows > 2 then
      for c = 0 to cols - 1 do
        connect_exn t.graph (id (rows - 1) c) (id 0 c)
      done
  end;
  t

let torus ?uid_of ~rows ~cols () =
  grid ?uid_of ~rows ~cols ~wrap:true
    ~name:(Printf.sprintf "torus-%dx%d" rows cols)
    ()

let mesh ?uid_of ~rows ~cols () =
  grid ?uid_of ~rows ~cols ~wrap:false
    ~name:(Printf.sprintf "mesh-%dx%d" rows cols)
    ()

let random_connected ?uid_of ~rng ~n ~extra_links () =
  if n < 1 then invalid_arg "random_connected: n must be >= 1";
  let t, sw =
    with_switches ?uid_of ~name:(Printf.sprintf "random-%d+%d" n extra_links) n
  in
  (* Random attachment tree keeps the graph connected. *)
  for i = 1 to n - 1 do
    connect_exn t.graph sw.(Autonet_sim.Rng.int rng i) sw.(i)
  done;
  let adjacent a b =
    List.exists (fun (_, _, peer, _) -> peer = b) (Graph.neighbors t.graph a)
  in
  let added = ref 0 and attempts = ref 0 in
  while !added < extra_links && !attempts < extra_links * 50 do
    incr attempts;
    let a = Autonet_sim.Rng.int rng n and b = Autonet_sim.Rng.int rng n in
    if a <> b && (not (adjacent sw.(a) sw.(b))) && connect_free t.graph sw.(a) sw.(b)
    then incr added
  done;
  t

let attach_hosts ?(dual_homed = true) t ~per_switch =
  let g = t.graph in
  let n = Graph.switch_count g in
  let next_host = ref 0 in
  let fresh_host () =
    let u = Uid.of_int (0x800000 + !next_host) in
    incr next_host;
    u
  in
  let attach s host_uid host_port =
    match Graph.free_port g s with
    | Some p ->
      Graph.attach_host g ~host_uid ~host_port (s, p);
      true
    | None -> false
  in
  for s = 0 to n - 1 do
    if dual_homed then begin
      (* Each dual-homed controller takes one port here and one on the next
         switch, so filling [per_switch] ports per switch means creating
         [per_switch / 2] controllers per switch (the neighbour creates the
         other half of this switch's ports). *)
      let controllers = per_switch / 2 in
      for _ = 1 to controllers do
        let u = fresh_host () in
        if attach s u 0 then ignore (attach ((s + 1) mod n) u 1)
      done;
      if per_switch land 1 = 1 then ignore (attach s (fresh_host ()) 0)
    end
    else
      for _ = 1 to per_switch do
        ignore (attach s (fresh_host ()) 0)
      done
  done;
  { t with name = Printf.sprintf "%s+h%d" t.name per_switch }

let figure9 () =
  let g = Graph.create () in
  let v = Graph.add_switch g ~uid:(Uid.of_int 0x10) in
  let w = Graph.add_switch g ~uid:(Uid.of_int 0x20) in
  let x = Graph.add_switch g ~uid:(Uid.of_int 0x30) in
  let y = Graph.add_switch g ~uid:(Uid.of_int 0x40) in
  let z = Graph.add_switch g ~uid:(Uid.of_int 0x50) in
  connect_exn g v w;
  connect_exn g v x;
  connect_exn g x z;
  connect_exn g w y;
  connect_exn g y z;
  let attach s uid_int =
    match Graph.free_port g s with
    | Some p ->
      Graph.attach_host g ~host_uid:(Uid.of_int uid_int) ~host_port:0 (s, p);
      (s, p)
    | None -> invalid_arg "figure9: no free port"
  in
  let a = attach v 0xA00 in
  let b = attach w 0xB00 in
  let c = attach z 0xC00 in
  ({ graph = g; name = "figure9" }, (a, b, c))

let src_service_lan ?(uid_of = default_uid) () =
  (* A 4x8 torus with two switches absent: the paper's "approximate 4 x 8
     torus" of 30 switches.  Links incident to the absent positions are
     simply not installed. *)
  let rows = 4 and cols = 8 in
  let absent = [ (3, 6); (3, 7) ] in
  let g = Graph.create () in
  let index = Hashtbl.create 32 in
  let k = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if not (List.mem (r, c) absent) then begin
        let s = Graph.add_switch g ~uid:(uid_of !k) in
        Hashtbl.replace index (r, c) s;
        incr k
      end
    done
  done;
  let get r c = Hashtbl.find_opt index ((r + rows) mod rows, (c + cols) mod cols) in
  Hashtbl.iter
    (fun (r, c) s ->
      (* Install each link from its lexically first endpoint. *)
      let try_connect r' c' =
        match get r' c' with
        | Some s' when s < s' -> ignore (connect_free g s s')
        | Some s' when s > s' -> ()
        | _ -> ()
      in
      try_connect r (c + 1);
      try_connect r (c - 1);
      try_connect (r + 1) c;
      try_connect (r - 1) c)
    index;
  let t = { graph = g; name = "src-service-lan" } in
  attach_hosts t ~per_switch:8

let spec_grammar =
  "src | figure9 | line:N | ring:N | star:N | torus:R,C | mesh:R,C | \
   tree:A,D | random:N,E"

let of_spec spec ~seed ~hosts =
  let malformed () =
    invalid_arg
      (Printf.sprintf "topology spec %S: expected %s" spec spec_grammar)
  in
  let base =
    match String.split_on_char ':' spec with
    | [ "src" ] -> src_service_lan ()
    | [ "figure9" ] -> fst (figure9 ())
    | [ family; args ] -> (
      let ints =
        List.map
          (fun a ->
            match int_of_string_opt a with Some n -> n | None -> malformed ())
          (String.split_on_char ',' args)
      in
      match (family, ints) with
      | "line", [ n ] -> line ~n ()
      | "ring", [ n ] -> ring ~n ()
      | "star", [ leaves ] -> star ~leaves ()
      | "torus", [ rows; cols ] -> torus ~rows ~cols ()
      | "mesh", [ rows; cols ] -> mesh ~rows ~cols ()
      | "tree", [ arity; depth ] -> tree ~arity ~depth ()
      | "random", [ n; extra_links ] ->
        random_connected ~rng:(Autonet_sim.Rng.create ~seed) ~n ~extra_links ()
      | _ -> malformed ())
    | _ -> malformed ()
  in
  if hosts > 0 then attach_hosts base ~per_switch:hosts else base

let pp ppf t =
  Format.fprintf ppf "@[<v>%s:@,%a@]" t.name Graph.pp t.graph

open Autonet_net

module Position = struct
  type t = { root : Uid.t; level : int; parent : Uid.t; parent_port : int }

  let root_position uid = { root = uid; level = 0; parent = uid; parent_port = 0 }

  let compare a b =
    let c = Uid.compare a.root b.root in
    if c <> 0 then c
    else
      let c = Int.compare a.level b.level in
      if c <> 0 then c
      else
        let c = Uid.compare a.parent b.parent in
        if c <> 0 then c else Int.compare a.parent_port b.parent_port

  let better a b = compare a b < 0
  let equal a b = compare a b = 0

  let pp ppf { root; level; parent; parent_port } =
    Format.fprintf ppf "(root=%a level=%d parent=%a port=%d)" Uid.pp root level
      Uid.pp parent parent_port
end

type parent = {
  link : Graph.link_id;
  my_port : Graph.port;
  parent_switch : Graph.switch;
  parent_port : Graph.port;
}

type t = {
  tree_root : Graph.switch;
  tree_members : Graph.switch list; (* ascending *)
  levels : int array; (* indexed by switch; -1 for non-members *)
  parents : parent option array;
  kids : (Graph.port * Graph.link_id * Graph.switch) list array;
      (* indexed by switch; ascending child index *)
}

let compute g ~member =
  let n = Graph.switch_count g in
  let levels = Array.make n (-1) in
  let parents = Array.make n None in
  (* Scratch: an int ring-free BFS queue and a seen bitmap; the queue also
     ends up holding the component members (in BFS order). *)
  let queue = Array.make (Stdlib.max n 1) 0 in
  let head = ref 0 and tail = ref 0 in
  let push v =
    queue.(!tail) <- v;
    incr tail
  in
  (* Pass 1: walk the component from [member] to find the root (smallest
     UID). *)
  let seen = Bytes.make n '\000' in
  Bytes.set seen member '\001';
  push member;
  let root = ref member in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    if Uid.compare (Graph.uid g v) (Graph.uid g !root) < 0 then root := v;
    Graph.iter_neighbors g v (fun _ _ peer _ ->
        if Bytes.get seen peer = '\000' then begin
          Bytes.set seen peer '\001';
          push peer
        end)
  done;
  let root = !root in
  (* Pass 2: breadth-first levels from the root. *)
  head := 0;
  tail := 0;
  levels.(root) <- 0;
  push root;
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let lv = levels.(v) + 1 in
    Graph.iter_neighbors g v (fun _ _ peer _ ->
        if levels.(peer) < 0 then begin
          levels.(peer) <- lv;
          push peer
        end)
  done;
  (* Parent selection: among neighbors one level up, smallest parent UID,
     then smallest child-side port. [Graph.iter_neighbors] ascends by
     local port, so the first qualifying candidate wins the port tie. *)
  for i = 0 to !tail - 1 do
    let s = queue.(i) in
    if s <> root then begin
      let best = ref None in
      Graph.iter_neighbors g s (fun my_port link peer parent_port ->
          if levels.(peer) = levels.(s) - 1 then
            match !best with
            | None -> best := Some { link; my_port; parent_switch = peer; parent_port }
            | Some cur ->
              if Uid.compare (Graph.uid g peer) (Graph.uid g cur.parent_switch) < 0
              then best := Some { link; my_port; parent_switch = peer; parent_port });
      match !best with
      | Some _ as p -> parents.(s) <- p
      | None -> assert false (* levels form a BFS tree: a parent exists *)
    end
  done;
  (* Members and each switch's children, both consed in descending
     switch order so that they ascend. *)
  let tree_members = ref [] and kids = Array.make n [] in
  for s = n - 1 downto 0 do
    if levels.(s) >= 0 then tree_members := s :: !tree_members;
    match parents.(s) with
    | Some p ->
      let up = p.parent_switch in
      kids.(up) <- (p.parent_port, p.link, s) :: kids.(up)
    | None -> ()
  done;
  { tree_root = root; tree_members = !tree_members; levels; parents; kids }

let root t = t.tree_root
let members t = t.tree_members
let mem t s = s >= 0 && s < Array.length t.levels && t.levels.(s) >= 0

let level t s =
  if not (mem t s) then invalid_arg "Spanning_tree.level: not a member";
  t.levels.(s)

let level_i t s =
  if s < 0 || s >= Array.length t.levels then -1 else t.levels.(s)

let parent t s =
  if not (mem t s) then invalid_arg "Spanning_tree.parent: not a member";
  t.parents.(s)

let children t s =
  if not (mem t s) then invalid_arg "Spanning_tree.children: not a member";
  t.kids.(s)

let is_tree_link t link_id =
  List.exists
    (fun s ->
      match t.parents.(s) with
      | Some p -> p.link = link_id
      | None -> false)
    t.tree_members

let position t g s =
  if not (mem t s) then invalid_arg "Spanning_tree.position: not a member";
  let root_uid = Graph.uid g t.tree_root in
  match t.parents.(s) with
  | None -> Position.root_position root_uid
  | Some p ->
    { Position.root = root_uid;
      level = t.levels.(s);
      parent = Graph.uid g p.parent_switch;
      parent_port = p.my_port }

let depth t =
  List.fold_left (fun acc s -> Stdlib.max acc t.levels.(s)) 0 t.tree_members

let pp g ppf t =
  Format.fprintf ppf "@[<v>spanning tree: root s%d (%a)@," t.tree_root Uid.pp
    (Graph.uid g t.tree_root);
  List.iter
    (fun s ->
      match t.parents.(s) with
      | None -> Format.fprintf ppf "  s%d: root@," s
      | Some p ->
        Format.fprintf ppf "  s%d: level %d, parent s%d via p%d->p%d@," s
          t.levels.(s) p.parent_switch p.my_port p.parent_port)
    t.tree_members;
  Format.fprintf ppf "@]"

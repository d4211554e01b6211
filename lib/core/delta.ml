open Autonet_net

type committed = {
  c_graph : Graph.t;
  c_tree : Spanning_tree.t;
  c_updown : Updown.t;
  c_routes : Routes.t;
  c_assignment : Address_assign.t;
  c_own : Tables.spec;
  c_all : Tables.spec array option;
  c_cert : Deadlock.cert option;
}

type change = {
  old_of_new : int array;
  new_of_old : int array;
  link_of_old : int array;
  forced_dirty : bool array;
  added_switches : Graph.switch list;
  removed_numbers : int list;
  changed_links : int;
}

type classification = Tree_preserving of change | Structural of string

let enabled () =
  match Sys.getenv_opt "AUTONET_DELTA" with
  | Some ("0" | "false" | "off" | "no") -> false
  | Some _ | None -> true

exception Bail of string

(* The soundness anchor: the new tree and assignment are always computed
   from scratch on the new graph (both are cheap — microseconds against
   the hundreds of milliseconds of table synthesis) and compared against
   the committed epoch.  The delta path therefore never guesses what
   survived; it only reuses state the comparison has proved identical. *)
let classify ~prev ~graph:g ~tree ~assignment ~me =
  try
    let og = prev.c_graph and otree = prev.c_tree in
    if Graph.max_ports g <> Graph.max_ports og then
      raise (Bail "max-ports changed");
    let n = Graph.switch_count g in
    let n_old = Graph.switch_count og in
    if not (Spanning_tree.mem tree me) then raise (Bail "not a tree member");
    (* A committed epoch covers one closed component; a report switch
       outside the tree would have no routes or address. *)
    for s = 0 to n - 1 do
      if not (Spanning_tree.mem tree s) then raise (Bail "graph not connected")
    done;
    if Spanning_tree.root tree = me then begin
      if prev.c_all = None then raise (Bail "no cached root tables");
      if prev.c_cert = None then raise (Bail "previous epoch not certified")
    end;
    (* Switch alignment by UID. *)
    let old_of_new = Array.make (Stdlib.max n 1) (-1) in
    let new_of_old = Array.make (Stdlib.max n_old 1) (-1) in
    List.iter
      (fun s ->
        match Graph.switch_of_uid og (Graph.uid g s) with
        | Some os ->
          old_of_new.(s) <- os;
          new_of_old.(os) <- s
        | None -> ())
      (Graph.switches g);
    (* Tree preservation: same root, and every surviving switch keeps its
       level and its parent choice (compared by UID and ports — switch
       indices may have shifted). *)
    if
      not
        (Uid.equal
           (Graph.uid g (Spanning_tree.root tree))
           (Graph.uid og (Spanning_tree.root otree)))
    then raise (Bail "root changed");
    for s = 0 to n - 1 do
      let os = old_of_new.(s) in
      if os >= 0 then begin
        if not (Spanning_tree.mem otree os) then
          raise (Bail "membership changed");
        if Spanning_tree.level tree s <> Spanning_tree.level otree os then
          raise (Bail "level changed");
        match (Spanning_tree.parent tree s, Spanning_tree.parent otree os) with
        | None, None -> ()
        | Some p, Some op ->
          if
            p.Spanning_tree.my_port <> op.Spanning_tree.my_port
            || p.Spanning_tree.parent_port <> op.Spanning_tree.parent_port
            || not
                 (Uid.equal
                    (Graph.uid g p.Spanning_tree.parent_switch)
                    (Graph.uid og op.Spanning_tree.parent_switch))
          then raise (Bail "parent changed")
        | _ -> raise (Bail "parent changed")
      end
    done;
    (* Address stability: every surviving switch keeps its number, so
       every surviving address block stays valid. *)
    for s = 0 to n - 1 do
      let os = old_of_new.(s) in
      if
        os >= 0
        && Address_assign.number assignment s
           <> Address_assign.number prev.c_assignment os
      then raise (Bail "switch number changed")
    done;
    (* Link alignment on canonical (UID, port) endpoint pairs — link ids
       are not stable across epochs, and neither is connect order. *)
    let canon gg (l : Graph.link) =
      let sa, pa = l.Graph.a and sb, pb = l.Graph.b in
      let ka = (Uid.to_int (Graph.uid gg sa), pa)
      and kb = (Uid.to_int (Graph.uid gg sb), pb) in
      if ka <= kb then (ka, kb) else (kb, ka)
    in
    let old_links = Hashtbl.create 64 in
    Graph.iter_links og (fun l ->
        Hashtbl.replace old_links (canon og l) l.Graph.id);
    let link_of_old = Array.make (Graph.max_link_id g + 1) (-1) in
    let forced_dirty = Array.make (Stdlib.max n 1) false in
    let changed = ref 0 in
    Graph.iter_links g (fun l ->
        let k = canon g l in
        match Hashtbl.find_opt old_links k with
        | Some ol ->
          link_of_old.(l.Graph.id) <- ol;
          Hashtbl.remove old_links k
        | None ->
          incr changed;
          let sa, _ = l.Graph.a and sb, _ = l.Graph.b in
          forced_dirty.(sa) <- true;
          forced_dirty.(sb) <- true);
    (* Leftovers are removed links: their surviving endpoints rebuild. *)
    Hashtbl.iter
      (fun ((ua, _), (ub, _)) _ ->
        incr changed;
        (match Graph.switch_of_uid g (Uid.of_int ua) with
        | Some s -> forced_dirty.(s) <- true
        | None -> ());
        match Graph.switch_of_uid g (Uid.of_int ub) with
        | Some s -> forced_dirty.(s) <- true
        | None -> ())
      old_links;
    (* A changed host-port set changes the receiving ports, the broadcast
       delivery rows and the self-delivery rows: rebuild. *)
    let host_ports gg ss =
      List.filter
        (fun p -> Graph.host_at gg (ss, p) <> None)
        (Graph.used_ports gg ss)
    in
    for s = 0 to n - 1 do
      let os = old_of_new.(s) in
      if os >= 0 && host_ports g s <> host_ports og os then
        forced_dirty.(s) <- true
    done;
    let added_switches = ref [] in
    for s = n - 1 downto 0 do
      if old_of_new.(s) < 0 then added_switches := s :: !added_switches
    done;
    let removed_numbers = ref [] in
    for os = n_old - 1 downto 0 do
      if new_of_old.(os) < 0 then
        match Address_assign.number prev.c_assignment os with
        | Some nb -> removed_numbers := nb :: !removed_numbers
        | None -> ()
    done;
    Tree_preserving
      { old_of_new;
        new_of_old;
        link_of_old;
        forced_dirty;
        added_switches = !added_switches;
        removed_numbers = List.sort Int.compare !removed_numbers;
        changed_links = !changed }
  with Bail msg -> Structural msg

type stats = {
  st_rebuilt : int;
  st_patched : int;
  st_reused : int;
  st_dests : int;
  st_deadlock_full : bool;
  st_verdict : Deadlock.result option;
  st_dirty : bool array;
}

let member_change ch = ch.added_switches <> [] || ch.removed_numbers <> []

let apply ?pool ?clock ?on_span ~prev ~graph:g ~tree ~assignment ~me ch =
  let time () = match clock with Some f -> f () | None -> 0. in
  let emit name t0 =
    match on_span with Some f -> f name (time () -. t0) | None -> ()
  in
  let t0 = time () in
  let updown =
    Updown.reorient g tree ~prev:prev.c_updown ~old_of_new_link:ch.link_of_old
      ~new_of_old_switch:ch.new_of_old
  in
  let routes, route_dirty, dests =
    Routes.recompute g tree updown ~prev:prev.c_routes
      ~old_of_new:ch.old_of_new
  in
  emit "delta_routes" t0;
  let t0 = time () in
  let n = Graph.switch_count g in
  let member_change = member_change ch in
  let dirty = Array.make n false in
  for s = 0 to n - 1 do
    dirty.(s) <-
      ch.old_of_new.(s) < 0 || ch.forced_dirty.(s) || route_dirty.(s)
  done;
  let rebuilt = ref 0 and patched = ref 0 and reused = ref 0 in
  let patch_spec s prev_spec =
    incr patched;
    Tables.patch g updown routes assignment ~prev:prev_spec ~switch:s
      ~removed_numbers:ch.removed_numbers ~added_dests:ch.added_switches
  in
  let reuse_spec prev_spec =
    incr reused;
    prev_spec
  in
  let own, c_all, deadlock_full, verdict, c_cert =
    match prev.c_all with
    | None ->
      (* Non-root: only our own table is loaded (the root rebuilds and
         verifies the full set on its side). *)
      let own =
        if dirty.(me) then begin
          incr rebuilt;
          Tables.build g tree updown routes assignment me
        end
        else if member_change then patch_spec me prev.c_own
        else reuse_spec prev.c_own
      in
      emit "delta_tables" t0;
      (own, None, false, None, None)
    | Some old_all ->
      let rebuild_list = ref [] in
      for s = n - 1 downto 0 do
        if dirty.(s) then rebuild_list := s :: !rebuild_list
      done;
      let rebuild_list = !rebuild_list in
      let rebuilt_specs =
        match pool with
        | Some pool ->
          (match rebuild_list with
          | m :: _ -> ignore (Graph.degree g m)
          | [] -> ());
          let arr = Array.of_list rebuild_list in
          Autonet_parallel.Pool.parallel_map_array pool
            ~costs:(fun i -> 1 + List.length (Graph.used_ports g arr.(i)))
            (fun s -> Tables.build g tree updown routes assignment s)
            arr
        | None ->
          Array.of_list
            (List.map
               (fun s -> Tables.build g tree updown routes assignment s)
               rebuild_list)
      in
      rebuilt := Array.length rebuilt_specs;
      let all = Array.make (Stdlib.max n 1) prev.c_own in
      let ri = ref 0 in
      for s = 0 to n - 1 do
        if dirty.(s) then begin
          all.(s) <- rebuilt_specs.(!ri);
          incr ri
        end
        else if member_change then
          all.(s) <- patch_spec s old_all.(ch.old_of_new.(s))
        else all.(s) <- reuse_spec old_all.(ch.old_of_new.(s))
      done;
      emit "delta_tables" t0;
      let t0 = time () in
      (* Incremental deadlock verification: re-certify only the tables
         that changed.  With an unchanged member set the certificate is
         identical to the previous epoch's, under which every reused spec
         already certified; with a changed member set there are no reused
         specs, so the check below covers every table.  A previous epoch
         without a certificate vouches for none of its tables, so then
         every table is checked.  Any failure falls back to the full
         checker — the certificate is one-sided. *)
      let cert = Deadlock.certificate g tree in
      let certifies sp = Deadlock.certifies cert g updown sp in
      let check_all = member_change || prev.c_cert = None in
      let to_check = ref [] in
      for s = n - 1 downto 0 do
        if dirty.(s) || check_all then to_check := all.(s) :: !to_check
      done;
      let result =
        if List.for_all certifies !to_check then
          (all.(me), Some all, false, Some Deadlock.Acyclic, Some cert)
        else begin
          let specs = Array.to_list all in
          let v = Deadlock.check_tables ?pool g specs in
          let c_cert =
            match v with
            | Deadlock.Acyclic ->
              if List.for_all certifies specs then Some cert else None
            | Deadlock.Cycle _ -> None
          in
          (all.(me), Some all, true, Some v, c_cert)
        end
      in
      emit "delta_deadlock" t0;
      result
  in
  let committed =
    { c_graph = g;
      c_tree = tree;
      c_updown = updown;
      c_routes = routes;
      c_assignment = assignment;
      c_own = own;
      c_all;
      c_cert }
  in
  ( committed,
    { st_rebuilt = !rebuilt;
      st_patched = !patched;
      st_reused = !reused;
      st_dests = dests;
      st_deadlock_full = deadlock_full;
      st_verdict = verdict;
      st_dirty = dirty } )

let non_root_stats ch st me =
  let rebuilt = st.st_dirty.(me) in
  let patched = (not rebuilt) && member_change ch in
  { st with
    st_rebuilt = Bool.to_int rebuilt;
    st_patched = Bool.to_int patched;
    st_reused = Bool.to_int (not (rebuilt || patched));
    st_deadlock_full = false;
    st_verdict = None }

let commit_full ~graph ~tree ~updown ~routes ~assignment ~own ~all =
  let n = Graph.switch_count graph in
  let c_all =
    match all with
    | Some specs when List.length specs = n ->
      let arr = Array.make (Stdlib.max n 1) own in
      List.iter (fun sp -> arr.(Tables.switch sp) <- sp) specs;
      Some arr
    | Some _ | None -> None
  in
  let c_cert =
    match c_all with
    | None -> None
    | Some arr ->
      let cert = Deadlock.certificate graph tree in
      if Array.for_all (fun sp -> Deadlock.certifies cert graph updown sp) arr
      then Some cert
      else None
  in
  { c_graph = graph;
    c_tree = tree;
    c_updown = updown;
    c_routes = routes;
    c_assignment = assignment;
    c_own = own;
    c_all;
    c_cert }

open Autonet_net

type t = {
  ups : int array; (* indexed by link id; -1 = excluded from the config *)
}

(* The orientation rule: the up end of a non-loop link between two tree
   members is the end closer to the root, ties toward the smaller UID.
   A non-member's {!Spanning_tree.level_i} of -1 excludes the link, and
   loop links fall out of the [sa <> sb] guard. *)
let up_of g tree (l : Graph.link) =
  let sa, _ = l.a and sb, _ = l.b in
  if sa = sb then -1
  else
    let la = Spanning_tree.level_i tree sa in
    if la < 0 then -1
    else
      let lb = Spanning_tree.level_i tree sb in
      if lb < 0 then -1
      else if la < lb then sa
      else if lb < la then sb
      else if Uid.compare (Graph.uid g sa) (Graph.uid g sb) <= 0 then sa
      else sb

let orient g tree =
  let ups = Array.make (Graph.max_link_id g + 1) (-1) in
  Graph.iter_links g (fun l -> ups.(l.id) <- up_of g tree l);
  { ups }

let reorient g tree ~prev ~old_of_new_link ~new_of_old_switch =
  let ups = Array.make (Graph.max_link_id g + 1) (-1) in
  let n_map = Array.length old_of_new_link in
  Graph.iter_links g (fun l ->
      let ol = if l.id < n_map then old_of_new_link.(l.id) else -1 in
      let mapped =
        if ol < 0 || ol >= Array.length prev.ups then -1
        else
          let ou = prev.ups.(ol) in
          if ou < 0 || ou >= Array.length new_of_old_switch then -1
          else new_of_old_switch.(ou)
      in
      ups.(l.id) <-
        (if mapped >= 0 then mapped
         (* Fresh link, or one the previous epoch excluded: orient it from
            scratch.  Both ends survive under the delta preconditions, so
            the rule sees the same levels and UIDs [orient] would. *)
         else up_of g tree l));
  { ups }

let up_end_i t id =
  if id < 0 || id >= Array.length t.ups then -1 else t.ups.(id)

let up_end t id =
  let u = up_end_i t id in
  if u < 0 then None else Some u

let usable t id = up_end_i t id >= 0

let goes_up t (l : Graph.link) ~from =
  match up_end_i t l.id with
  | -1 -> invalid_arg "Updown.goes_up: link not in the configuration"
  | up ->
    let sa, _ = l.a and sb, _ = l.b in
    if from <> sa && from <> sb then
      invalid_arg "Updown.goes_up: switch not on this link";
    (* Traversal moves toward the other end; it goes up iff the other end
       is the up end.  Loop links never reach here. *)
    let dest = if from = sa then sb else sa in
    dest = up

let usable_links t =
  let acc = ref [] in
  for id = Array.length t.ups - 1 downto 0 do
    if t.ups.(id) >= 0 then acc := id :: !acc
  done;
  !acc

let verify_acyclic g t =
  (* DFS for a cycle in the digraph whose arcs point from the down end to
     the up end of each usable link. *)
  let n = Graph.switch_count g in
  let adj = Array.make n [] in
  List.iter
    (fun id ->
      match Graph.link g id with
      | None -> ()
      | Some l -> begin
        match up_end t id with
        | None -> ()
        | Some up ->
          let sa, _ = l.a and sb, _ = l.b in
          let down = if up = sa then sb else sa in
          adj.(down) <- up :: adj.(down)
      end)
    (usable_links t);
  let state = Array.make n 0 (* 0 unvisited, 1 in progress, 2 done *) in
  let rec has_cycle v =
    if state.(v) = 1 then true
    else if state.(v) = 2 then false
    else begin
      state.(v) <- 1;
      let found = List.exists has_cycle adj.(v) in
      state.(v) <- 2;
      found
    end
  in
  not (List.exists has_cycle (Graph.switches g))

let pp g ppf t =
  Format.fprintf ppf "@[<v>orientation:@,";
  List.iter
    (fun id ->
      match (Graph.link g id, up_end t id) with
      | Some l, Some up ->
        let sa, pa = l.a and sb, pb = l.b in
        Format.fprintf ppf "  link %d: s%d.p%d -- s%d.p%d, up end s%d@," id sa
          pa sb pb up
      | _, _ -> ())
    (usable_links t);
  Format.fprintf ppf "@]"

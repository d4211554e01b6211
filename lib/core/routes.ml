type phase = Up | Down

(* A state encodes (switch, phase) as [2*switch + (0|1)]. *)
let state s = function Up -> 2 * s | Down -> (2 * s) + 1

type t = {
  graph : Graph.t;
  updown : Updown.t;
  n : int;
  (* Legal forward moves in CSR form: for state [st], entries
     [move_off.(st) .. move_off.(st+1) - 1] of the three parallel arrays
     give the destination state, the out-port and the link of each legal
     move, in ascending out-port order. *)
  move_off : int array;
  move_state : int array;
  move_port : int array;
  move_link : int array;
  (* dist.(d).(state) = minimal legal hops from state to switch d, or -1. *)
  dist : int array array;
}

(* Build the legal-move CSR straight from the graph's packed adjacency:
   from (s, Up) every usable link is a move (staying Up when it goes up),
   from (s, Down) only the links whose far end is the down end. *)
let build_moves g updown n =
  let nstates = 2 * n in
  let move_off = Array.make (nstates + 1) 0 in
  for s = 0 to n - 1 do
    let up_moves = ref 0 and down_moves = ref 0 in
    Graph.iter_neighbors g s (fun _ l peer _ ->
        let up = Updown.up_end_i updown l in
        if up >= 0 then begin
          incr up_moves;
          if up <> peer then incr down_moves
        end);
    move_off.((2 * s) + 1) <- !up_moves;
    move_off.((2 * s) + 2) <- !down_moves
  done;
  for st = 1 to nstates do
    move_off.(st) <- move_off.(st) + move_off.(st - 1)
  done;
  let total = move_off.(nstates) in
  let move_state = Array.make total 0
  and move_port = Array.make total 0
  and move_link = Array.make total 0 in
  let cursor = Array.make nstates 0 in
  Array.blit move_off 0 cursor 0 nstates;
  for s = 0 to n - 1 do
    Graph.iter_neighbors g s (fun p l peer _ ->
        let up = Updown.up_end_i updown l in
        if up >= 0 then begin
          let dest = if up = peer then 2 * peer else (2 * peer) + 1 in
          let i = cursor.(2 * s) in
          move_state.(i) <- dest;
          move_port.(i) <- p;
          move_link.(i) <- l;
          cursor.(2 * s) <- i + 1;
          if up <> peer then begin
            let j = cursor.((2 * s) + 1) in
            move_state.(j) <- dest;
            move_port.(j) <- p;
            move_link.(j) <- l;
            cursor.((2 * s) + 1) <- j + 1
          end
        end)
  done;
  (move_off, move_state, move_port, move_link)

(* Transpose the move CSR into a predecessor CSR for the backward BFS:
   pred.(st') lists the states one legal move before st'. *)
let transpose ~nstates ~move_off ~move_state =
  let pred_off = Array.make (nstates + 1) 0 in
  let total = move_off.(nstates) in
  for i = 0 to total - 1 do
    pred_off.(move_state.(i) + 1) <- pred_off.(move_state.(i) + 1) + 1
  done;
  for st = 1 to nstates do
    pred_off.(st) <- pred_off.(st) + pred_off.(st - 1)
  done;
  let pred = Array.make total 0 in
  let cursor = Array.make nstates 0 in
  Array.blit pred_off 0 cursor 0 nstates;
  for st = 0 to nstates - 1 do
    for i = move_off.(st) to move_off.(st + 1) - 1 do
      let dest = move_state.(i) in
      pred.(cursor.(dest)) <- st;
      cursor.(dest) <- cursor.(dest) + 1
    done
  done;
  (pred_off, pred)

(* One backward BFS from destination [d] over the predecessor CSR, into a
   fresh distance array.  [queue] is caller-provided scratch of at least
   [nstates] ints. *)
let bfs_dest ~nstates ~pred_off ~pred ~queue d =
  let dd = Array.make nstates (-1) in
  let head = ref 0 and tail = ref 0 in
  dd.(2 * d) <- 0;
  dd.((2 * d) + 1) <- 0;
  queue.(0) <- 2 * d;
  queue.(1) <- (2 * d) + 1;
  tail := 2;
  while !head < !tail do
    let st = queue.(!head) in
    incr head;
    let nd = dd.(st) + 1 in
    for i = pred_off.(st) to pred_off.(st + 1) - 1 do
      let st' = pred.(i) in
      if dd.(st') < 0 then begin
        dd.(st') <- nd;
        queue.(!tail) <- st';
        incr tail
      end
    done
  done;
  dd

let compute g tree updown =
  let n = Graph.switch_count g in
  let nstates = 2 * n in
  let move_off, move_state, move_port, move_link = build_moves g updown n in
  let pred_off, pred = transpose ~nstates ~move_off ~move_state in
  (* One backward BFS per member destination, sharing one int queue. *)
  let dist = Array.make n [||] in
  let queue = Array.make (Stdlib.max nstates 1) 0 in
  for d = 0 to n - 1 do
    if Spanning_tree.mem tree d then
      dist.(d) <- bfs_dest ~nstates ~pred_off ~pred ~queue d
  done;
  { graph = g; updown; n; move_off; move_state; move_port; move_link; dist }

let recompute g tree updown ~prev ~old_of_new =
  let n = Graph.switch_count g in
  let nstates = 2 * n in
  let move_off, move_state, move_port, move_link = build_moves g updown n in
  let pred_off, pred = transpose ~nstates ~move_off ~move_state in
  let identity =
    n = prev.n
    &&
    let ok = ref true in
    for s = 0 to n - 1 do
      if old_of_new.(s) <> s then ok := false
    done;
    !ok
  in
  (* Per-state diff of the legal-move multiset between the epochs, with
     old moves and the comparison keys of new moves both expressed in the
     OLD state space.  A new move whose target switch has no old image
     gets a unique negative key, so it always surfaces as an addition. *)
  let dels = ref [] (* (st_new, st_old, deleted old-space target) *)
  and adds = ref [] (* (st_new, added new-space target) *) in
  for ns = 0 to n - 1 do
    let os = old_of_new.(ns) in
    for ph = 0 to 1 do
      let st = (2 * ns) + ph in
      if os < 0 then
        (* a switch with no previous image: every move is an addition *)
        for i = move_off.(st) to move_off.(st + 1) - 1 do
          adds := (st, move_state.(i)) :: !adds
        done
      else begin
        let ost = (2 * os) + ph in
        let nw = ref [] in
        for i = move_off.(st) to move_off.(st + 1) - 1 do
          let t' = move_state.(i) in
          let po = old_of_new.(t' / 2) in
          let key = if po >= 0 then (2 * po) + (t' land 1) else -2 - t' in
          nw := (key, t') :: !nw
        done;
        let nw = List.sort (fun (a, _) (b, _) -> Int.compare a b) !nw in
        let ol = ref [] in
        for i = prev.move_off.(ost) to prev.move_off.(ost + 1) - 1 do
          ol := prev.move_state.(i) :: !ol
        done;
        let ol = List.sort Int.compare !ol in
        let rec diff o nl =
          match (o, nl) with
          | [], [] -> ()
          | o1 :: orest, ((k1, t') :: nrest as nall) ->
            if o1 = k1 then diff orest nrest
            else if o1 < k1 then begin
              dels := (st, ost, o1) :: !dels;
              diff orest nall
            end
            else begin
              adds := (st, t') :: !adds;
              diff o nrest
            end
          | o1 :: orest, [] ->
            dels := (st, ost, o1) :: !dels;
            diff orest []
          | [], (_, t') :: nrest ->
            adds := (st, t') :: !adds;
            diff [] nrest
        in
        diff ol nw
      end
    done
  done;
  let dels = !dels and adds = !adds in
  let dist = Array.make n [||] in
  let dirty = Array.make n false in
  let recomputed = ref 0 in
  let queue = Array.make (Stdlib.max nstates 1) 0 in
  for d = 0 to n - 1 do
    if Spanning_tree.mem tree d then begin
      let od = old_of_new.(d) in
      let dd_old = if od >= 0 then prev.dist.(od) else [||] in
      if Array.length dd_old = 0 then begin
        (* brand-new destination: fresh BFS; no switch becomes dirty for
           it — surviving tables gain its address block by patching, not
           because an existing next-hop set changed *)
        dist.(d) <- bfs_dest ~nstates ~pred_off ~pred ~queue d;
        incr recomputed
      end
      else begin
        (* Previous distances at an old-space / new-space state. *)
        let vo ost = dd_old.(ost) in
        let vn st =
          let os = old_of_new.(st / 2) in
          if os < 0 then -1 else dd_old.((2 * os) + (st land 1))
        in
        (* The old distance function (extended with -1 at states of new
           switches) stays the unique BFS fixed point of the new move
           relation unless some edit seeds a change: an added move that
           improves on the old distance, or a deleted move that was the
           only support of its source's distance. *)
        let seeded =
          List.exists
            (fun (st, st') ->
              let t = vn st' in
              t >= 0
              &&
              let h = vn st in
              h < 0 || h > t + 1)
            adds
          || List.exists
               (fun (st, ost, ost') ->
                 let h = vo ost and t = vo ost' in
                 h >= 1 && t = h - 1
                 &&
                 let supported = ref false in
                 for i = move_off.(st) to move_off.(st + 1) - 1 do
                   if (not !supported) && vn move_state.(i) = h - 1 then
                     supported := true
                 done;
                 not !supported)
               dels
        in
        if not seeded then
          if identity then dist.(d) <- dd_old
          else begin
            let dd = Array.make nstates (-1) in
            for st = 0 to nstates - 1 do
              dd.(st) <- vn st
            done;
            dist.(d) <- dd
          end
        else begin
          let dd = bfs_dest ~nstates ~pred_off ~pred ~queue d in
          dist.(d) <- dd;
          incr recomputed;
          (* Exact dirtiness: a surviving switch must rebuild its table
             iff, at one of its states, the set of minimal moves toward
             [d] changed.  Comparing the minimality predicate per move of
             the NEW CSR is exact for switches whose move list is
             unchanged — and any switch whose move list did change is an
             endpoint of a changed link, which the delta layer rebuilds
             unconditionally. *)
          for st = 0 to nstates - 1 do
            let s = st / 2 in
            if s <> d && (not dirty.(s)) && old_of_new.(s) >= 0 then begin
              let hn = dd.(st) and ho = vn st in
              for i = move_off.(st) to move_off.(st + 1) - 1 do
                let t' = move_state.(i) in
                let pn = hn > 0 && dd.(t') = hn - 1 in
                let po = ho > 0 && vn t' = ho - 1 in
                if pn <> po then dirty.(s) <- true
              done
            end
          done
        end
      end
    end
  done;
  ( { graph = g; updown; n; move_off; move_state; move_port; move_link; dist },
    dirty,
    !recomputed )

let phase_of_arrival t ~at ~in_port =
  if in_port = 0 then Up
  else
    match Graph.host_at t.graph (at, in_port) with
    | Some _ -> Up
    | None -> begin
      match Graph.link_at t.graph (at, in_port) with
      | None -> Up (* unconnected port: treat as an entry point *)
      | Some l_id -> begin
        match Updown.up_end t.updown l_id with
        | None ->
          invalid_arg "Routes.phase_of_arrival: port on an excluded link"
        | Some up -> if up = at then Up else Down
      end
    end

let distance_from t ~src ~phase ~dst =
  if Array.length t.dist.(dst) = 0 then None
  else
    let d = t.dist.(dst).(state src phase) in
    if d < 0 then None else Some d

let distance t ~src ~dst = distance_from t ~src ~phase:Up ~dst

let next_hops t ~at ~phase ~dst =
  if at = dst then []
  else if Array.length t.dist.(dst) = 0 then []
  else
    let dd = t.dist.(dst) in
    let st = state at phase in
    let here = dd.(st) in
    if here < 0 then []
    else begin
      let acc = ref [] in
      for i = t.move_off.(st + 1) - 1 downto t.move_off.(st) do
        if dd.(t.move_state.(i)) = here - 1 then
          acc := (t.move_port.(i), t.move_link.(i)) :: !acc
      done;
      !acc
    end

let all_next_hops t ~at ~phase ~dst =
  if at = dst then []
  else if Array.length t.dist.(dst) = 0 then []
  else
    let dd = t.dist.(dst) in
    let st = state at phase in
    let acc = ref [] in
    for i = t.move_off.(st + 1) - 1 downto t.move_off.(st) do
      if dd.(t.move_state.(i)) >= 0 then
        acc := (t.move_port.(i), t.move_link.(i)) :: !acc
    done;
    !acc

let legal_route _t g updown path =
  let rec step phase = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      (* Find a link between a and b compatible with the phase. *)
      let candidates =
        List.filter_map
          (fun (_, l_id, peer, _) ->
            if peer = b && Updown.usable updown l_id then
              match Graph.link g l_id with
              | Some l -> Some (Updown.goes_up updown l ~from:a)
              | None -> None
            else None)
          (Graph.neighbors g a)
      in
      let can_continue up_move =
        match (phase, up_move) with
        | Up, true -> Some Up
        | Up, false | Down, false -> Some Down
        | Down, true -> None
      in
      List.exists
        (fun up_move ->
          match can_continue up_move with
          | Some ph' -> step ph' rest
          | None -> false)
        candidates
  in
  step Up path

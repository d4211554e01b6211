type channel = {
  link : Graph.link_id;
  from_switch : Graph.switch;
  to_switch : Graph.switch;
}

let pp_channel ppf c =
  Format.fprintf ppf "link%d(s%d->s%d)" c.link c.from_switch c.to_switch

type result = Acyclic | Cycle of channel list

let pp_result ppf = function
  | Acyclic -> Format.pp_print_string ppf "acyclic"
  | Cycle cs ->
    Format.fprintf ppf "cycle: %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
         pp_channel)
      cs

let channel_of_index g idx =
  let link_id = idx / 2 in
  match Graph.link g link_id with
  | None -> assert false
  | Some l ->
    let sa, _ = l.a and sb, _ = l.b in
    if idx land 1 = 0 then { link = link_id; from_switch = sa; to_switch = sb }
    else { link = link_id; from_switch = sb; to_switch = sa }

let max_channel g = 2 * (Graph.max_link_id g + 1)

(* --- Per-switch edge generation. ---

   Every dependency edge generated at switch [s] runs from a channel
   {e into} [s] to a channel {e out of} [s], and a channel points into
   exactly one switch — so per-switch edge generation touches disjoint
   source channels and can run in parallel without any cross-switch
   deduplication.

   Within one switch both endpoints are determined by port numbers, so
   the edge set is at most [max_ports] bitmasks of [max_ports] bits: for
   each in-port, one int whose bit [q] says "may continue out of port
   [q]".  Setting a bit both deduplicates and replaces the old
   [(c1, c2)] pair-hashtable.

   The parallel fan-out writes those masks straight into preallocated
   call-level buffers indexed by channel (plus a per-switch slice of the
   port->out-channel map): each task's writes are confined to the
   channels into — and the port slice of — its own switch, so the merge
   is the identity and the CSR below is stitched serially from the
   filled buffers with zero intermediate per-switch records. *)

module Arena = Autonet_parallel.Pool.Arena

(* Per-task scratch (port -> in-channel map of the switch being scanned). *)
let slot_task_in = Arena.register ()

(* Call-level buffers, owned by the calling domain's arena and reused
   across epochs (workers write into them during the round; the barrier
   orders those writes before the caller's reads). *)
let slot_mask = Arena.register ()
let slot_head = Arena.register ()
let slot_out = Arena.register ()

(* CSR + DFS scratch, likewise reused across calls. *)
let slot_off = Arena.register ()
let slot_adj = Arena.register ()
let slot_dfs_state = Arena.register ()
let slot_dfs_parent = Arena.register ()
let slot_dfs_sv = Arena.register ()
let slot_dfs_si = Arena.register ()

(* Fill switch [s]'s share of the call-level buffers: [out_ch] gets the
   port -> out-channel map in the slice [s * (mp+1) ..], [head.(c)] tags
   every channel [c] into [s] with [s], and [mask.(c)] accumulates the
   port vectors of the entries received on those channels (stitching
   keeps the ports that have an out-channel).  All writes are
   confined to data owned by [s], so tasks for distinct switches never
   touch the same cell. *)
let fill_switch_deps g ~mp ~mask ~head ~out_ch spec =
  let s = Tables.switch spec in
  let arena = Arena.get () in
  let se_in = Arena.ints arena slot_task_in ~len:(mp + 1) in
  Array.fill se_in 0 (mp + 1) (-1);
  let base = s * (mp + 1) in
  for p = 1 to mp do
    match Graph.link_at g (s, p) with
    | None -> ()
    | Some l_id -> (
      match Graph.link g l_id with
      | None -> ()
      | Some l ->
        if not (Graph.is_loop l) then begin
          let sa, _ = l.a in
          let c_in =
            if s = sa then begin
              out_ch.(base + p) <- 2 * l_id;
              (2 * l_id) + 1
            end
            else begin
              out_ch.(base + p) <- (2 * l_id) + 1;
              2 * l_id
            end
          in
          se_in.(p) <- c_in;
          head.(c_in) <- s
        end)
  done;
  Tables.iter spec ~f:(fun ~in_port ~dst:_ entry ->
      if (not (Tables.broadcast entry)) && in_port > 0 && in_port <= mp then begin
        let c1 = se_in.(in_port) in
        if c1 >= 0 then
          mask.(c1) <- mask.(c1) lor (Tables.vector entry :> int)
      end)

(* Stitch the filled buffers into a CSR adjacency over channels.  Rows
   are walked in ascending channel order and filled in ascending
   out-port order, so the graph (and therefore the cycle witness below)
   is identical however the per-switch fills were scheduled — and
   because rows are visited in CSR order, one running cursor replaces
   the per-row cursor array. *)
let stitch_csr ~arena ~n ~mp ~mask ~head ~out_ch =
  let off = Arena.ints arena slot_off ~len:(n + 1) in
  Array.fill off 0 (n + 1) 0;
  for c = 0 to n - 1 do
    let m = mask.(c) in
    if m <> 0 then begin
      let base = head.(c) * (mp + 1) in
      let deg = ref 0 in
      for q = 1 to mp do
        if m land (1 lsl q) <> 0 && out_ch.(base + q) >= 0 then incr deg
      done;
      off.(c + 1) <- !deg
    end
  done;
  for c = 1 to n do
    off.(c) <- off.(c) + off.(c - 1)
  done;
  let adj = Arena.ints arena slot_adj ~len:(Stdlib.max 1 off.(n)) in
  let cur = ref 0 in
  for c = 0 to n - 1 do
    let m = mask.(c) in
    if m <> 0 then begin
      let base = head.(c) * (mp + 1) in
      for q = 1 to mp do
        if m land (1 lsl q) <> 0 && out_ch.(base + q) >= 0 then begin
          adj.(!cur) <- out_ch.(base + q);
          incr cur
        end
      done
    end
  done;
  (off, adj)

(* Iterative coloring DFS over the CSR: 0 = white, 1 = on stack, 2 =
   done.  Returns the first back-edge cycle found, exactly as the old
   recursive version did — but with an explicit stack, so the depth is
   bounded by memory rather than the native stack (a single dependency
   chain of 100k+ channels used to overflow it). *)
let find_cycle_csr g ~off ~adj n =
  let cap = Stdlib.max n 1 in
  let arena = Arena.get () in
  let state = Arena.ints arena slot_dfs_state ~len:cap in
  Array.fill state 0 cap 0;
  (* [parent], and the stack arrays, are only read after being written
     this call, so stale contents are fine. *)
  let parent = Arena.ints arena slot_dfs_parent ~len:cap in
  let stack_v = Arena.ints arena slot_dfs_sv ~len:cap in
  let stack_i = Arena.ints arena slot_dfs_si ~len:cap in
  let found_v = ref (-1) and found_w = ref (-1) in
  let exception Found in
  try
    for root = 0 to n - 1 do
      if state.(root) = 0 && off.(root + 1) > off.(root) then begin
        state.(root) <- 1;
        stack_v.(0) <- root;
        stack_i.(0) <- off.(root);
        let sp = ref 1 in
        while !sp > 0 do
          let top = !sp - 1 in
          let v = stack_v.(top) in
          let i = stack_i.(top) in
          if i >= off.(v + 1) then begin
            state.(v) <- 2;
            decr sp
          end
          else begin
            stack_i.(top) <- i + 1;
            let w = adj.(i) in
            if state.(w) = 1 then begin
              found_v := v;
              found_w := w;
              raise Found
            end
            else if state.(w) = 0 then begin
              parent.(w) <- v;
              state.(w) <- 1;
              stack_v.(!sp) <- w;
              stack_i.(!sp) <- off.(w);
              incr sp
            end
          end
        done
      end
    done;
    Acyclic
  with Found ->
    (* Walk parents from v back to w to materialize the cycle. *)
    let rec collect acc u =
      if u = !found_w then u :: acc else collect (u :: acc) parent.(u)
    in
    Cycle (List.map (channel_of_index g) (collect [] !found_v))

let check_tables ?(pool = Autonet_parallel.Pool.serial) g specs =
  let n = max_channel g in
  let mp = Graph.max_ports g in
  let ns = Graph.switch_count g in
  let arena = Arena.get () in
  let cap = Stdlib.max n 1 in
  let mask = Arena.ints arena slot_mask ~len:cap in
  Array.fill mask 0 cap 0;
  let head = Arena.ints arena slot_head ~len:cap in
  let out_len = Stdlib.max 1 (ns * (mp + 1)) in
  let out_ch = Arena.ints arena slot_out ~len:out_len in
  Array.fill out_ch 0 out_len (-1);
  (* One fill task per spec.  The specs must be for distinct switches,
     which every caller satisfies: tasks rely on per-switch write
     ownership of the buffers. *)
  let arr = Array.of_list specs in
  Autonet_parallel.Pool.parallel_for pool ~n:(Array.length arr) (fun i ->
      fill_switch_deps g ~mp ~mask ~head ~out_ch arr.(i));
  let off, adj = stitch_csr ~arena ~n ~mp ~mask ~head ~out_ch in
  find_cycle_csr g ~off ~adj n

(* --- Order certificate for incremental (delta-epoch) verification. ---

   Rank the members by (tree level, UID); distinct switches get distinct
   ranks because UIDs are unique.  Give the up-direction channel into
   head switch [h] the key [m - 1 - rank h] and the down-direction
   channel into [h] the key [m + rank h].  Every dependency edge a legal
   up*/down* table can generate strictly increases the key:
   - up -> up: the out channel's head is strictly closer to the root
     (smaller level, or equal level and smaller UID — the orientation
     rule), so its rank is smaller and its key larger;
   - up -> down: up keys all lie below [m], down keys at or above it;
   - down -> down: the out channel's head is strictly farther from the
     root, so its rank and key are larger;
   - down -> up gets a decreasing key and fails — as it must, since
     up*/down* forbids it.
   A spec whose every unicast edge increases the key cannot take part in
   a dependency cycle, so if every spec certifies the whole dependency
   graph is acyclic.  The delta path re-checks only rebuilt or patched
   specs against the new epoch's certificate (a reused spec was certified
   under an identical member ranking, so its certification stands) and
   falls back to the full [check_tables] whenever any spec fails. *)

type cert = { cert_rank : int array; cert_members : int }

let certificate g tree =
  let arr = Array.of_list (Spanning_tree.members tree) in
  Array.sort
    (fun a b ->
      let c =
        Int.compare (Spanning_tree.level tree a) (Spanning_tree.level tree b)
      in
      if c <> 0 then c
      else Autonet_net.Uid.compare (Graph.uid g a) (Graph.uid g b))
    arr;
  let rank = Array.make (Graph.switch_count g) (-1) in
  Array.iteri (fun i s -> rank.(s) <- i) arr;
  { cert_rank = rank; cert_members = Array.length arr }

let certifies cert g updown spec =
  let s = Tables.switch spec in
  let mp = Graph.max_ports g in
  let m = cert.cert_members in
  let rank x =
    if x >= 0 && x < Array.length cert.cert_rank then cert.cert_rank.(x)
    else -1
  in
  (* Per-port channel keys.  [linked] (a port-vector mask) mirrors the
     edge-generation rule of [fill_switch_deps]: any cabled non-loop link
     carries channels and therefore edges, usable or not; but only usable
     links between ranked members get a finite key, so an edge over
     anything else (correctly) fails to certify. *)
  let linked = ref 0 in
  let in_key = Array.make (mp + 1) min_int in
  let out_key = Array.make (mp + 1) min_int in
  for p = 1 to mp do
    match Graph.link_at g (s, p) with
    | None -> ()
    | Some l_id -> (
      match Graph.link g l_id with
      | None -> ()
      | Some l ->
        if not (Graph.is_loop l) then begin
          linked := !linked lor (1 lsl p);
          match Updown.up_end updown l_id with
          | None -> ()
          | Some up ->
            let key_into head =
              let r = rank head in
              if r < 0 then min_int
              else if head = up then m - 1 - r
              else m + r
            in
            let o, _ = Graph.other_end l s in
            in_key.(p) <- key_into s;
            out_key.(p) <- key_into o
        end)
  done;
  (* An entry's verdict depends on its in-port and ports alone, so the
     scan can skip every page it has already seen. *)
  let linked = !linked in
  not
    (Tables.exists_entry spec ~f:(fun ~in_port entry ->
         (not (Tables.broadcast entry))
         && linked land (1 lsl in_port) <> 0
         &&
         let ki = in_key.(in_port) in
         let outs = (Tables.vector entry :> int) land linked in
         let rec refutes p =
           p <= mp
           && ((outs lsr p) land 1 = 1 && ki >= out_key.(p) || refutes (p + 1))
         in
         outs <> 0 && (ki = min_int || refutes 1)))

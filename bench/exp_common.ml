(* Shared plumbing for the experiment harness: the pure configuration
   pipeline, host-port helpers, and formatting shortcuts. *)

open Autonet_core
module B = Autonet_topo.Builders
module Report = Autonet_analysis.Report
module Time = Autonet_sim.Time

type configured = {
  graph : Graph.t;
  tree : Spanning_tree.t;
  updown : Updown.t;
  routes : Routes.t;
  assignment : Address_assign.t;
  specs : Tables.spec list;
}

let configure ?mode ?pool (t : B.t) =
  let c = Configuration.boot t.B.graph in
  (* Experiments take the multicore path by default (AUTONET_DOMAINS,
     falling back to the machine); the specs are bit-identical to the
     serial build, so every experiment's output is unchanged. *)
  let pool =
    match pool with Some p -> p | None -> Autonet_parallel.Pool.default ()
  in
  { graph = c.graph; tree = c.tree; updown = c.updown; routes = c.routes;
    assignment = c.assignment; specs = Configuration.tables ?mode ~pool c }

let host_eps g =
  List.map (fun (h : Graph.host_attachment) -> (h.switch, h.switch_port))
    (Graph.hosts g)

let addr_of c (s, p) = Address_assign.address c.assignment s p

(* Max switch-to-switch hop distance.  One BFS per source, but the
   distance array and int queue are allocated once and wiped between
   sources (also used by exp_reconfig's size/diameter table, where the
   old per-source [Array.make] showed up at 48 switches). *)
let diameter g =
  let n = Graph.switch_count g in
  let dist = Array.make (Stdlib.max n 1) (-1) in
  let queue = Array.make (Stdlib.max n 1) 0 in
  let maxd = ref 0 in
  for s = 0 to n - 1 do
    Array.fill dist 0 n (-1);
    let head = ref 0 and tail = ref 0 in
    dist.(s) <- 0;
    queue.(0) <- s;
    tail := 1;
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      Graph.iter_neighbors g v (fun _ _ peer _ ->
          if dist.(peer) < 0 then begin
            dist.(peer) <- dist.(v) + 1;
            queue.(!tail) <- peer;
            incr tail
          end)
    done;
    for v = 0 to n - 1 do
      if dist.(v) > !maxd then maxd := dist.(v)
    done
  done;
  !maxd

let ms t = Report.cell_time_ms t
let us t = Report.cell_time_us t

let section title =
  Printf.printf "\n################ %s ################\n\n" title

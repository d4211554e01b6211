(* The bench-delta gate: the incremental reconfiguration fast path on
   the 256-switch 16x16 torus under its headline fault — a non-tree link
   dying.  This is the regression the delta layer exists to prevent:
   every epoch used to pay full table synthesis (~85% of root compute)
   and a full deadlock check even when the spanning tree, the addresses
   and almost every route survived the fault untouched.

   The gate has two halves.  The deterministic one runs under
   `dune build @bench-delta` (`delta --smoke`, attached to runtest): the
   fault must classify tree-preserving, every delta table must equal the
   full recompute, the deadlock verdicts must agree, and the work
   counters must stay within [max_tables] tables rebuilt or patched and
   [max_dests] destinations re-run.  A de-incrementalization (a
   classifier that starts refusing easy faults, a dirty criterion that
   marks everything) fails the test suite on any machine.  The timed
   half — the delta path at least 5x faster than the full recompute —
   depends on the machine's load, so only the full `delta` run enforces
   it (`make bench-gates`).

   Both sides are timed serially (no domain pool): the gate prices the
   algorithmic win of recomputing less, not parallel speedup — that is
   bench-scaling's job.  Before any timing, the delta commit is checked
   identical to the full recompute, so the gate can never pass on a
   fast-but-wrong path.

   [measure] is also called by the micro harness: the resulting pair of
   epoch costs is the [delta] block of BENCH_micro.json (schema v5). *)

module B = Autonet_topo.Builders
open Autonet_core
module Report = Autonet_analysis.Report

let smoke = ref false
let threshold = 5.0

(* Upper bounds on the deterministic work of the headline fault: today
   26 tables rebuilt, 0 patched and 16 destinations re-run. *)
let max_tables = 26
let max_dests = 16

(* Same measurement discipline as bench-scaling: wall clock with >= 2
   cores, process CPU time on a single core (immune to preemption by
   other tenants), interleaved samples, best-of as the noise-robust
   estimator. *)
let now ~cores () =
  if cores >= 2 then Unix.gettimeofday ()
  else
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime

let best_of_interleaved ~cores ~reps ~iters f_full f_delta =
  let bf = ref infinity and bd = ref infinity in
  let sample f =
    let t0 = now ~cores () in
    for _ = 1 to iters do
      f ()
    done;
    (now ~cores () -. t0) /. float_of_int iters
  in
  for _ = 1 to reps do
    let f = sample f_full in
    let d = sample f_delta in
    if f < !bf then bf := f;
    if d < !bd then bd := d
  done;
  (!bf, !bd)

(* Rebuild [g] without one link, reassigning indices the way a fresh
   topology report would — the delta classifier aligns on UIDs, so the
   bench exercises the same alignment work as production. *)
let rebuild_without g ~drop_link =
  let g' = Graph.create ~max_ports:(Graph.max_ports g) () in
  List.iter
    (fun s -> ignore (Graph.add_switch g' ~uid:(Graph.uid g s)))
    (Graph.switches g);
  List.iter
    (fun (l : Graph.link) ->
      if l.id <> drop_link then ignore (Graph.connect g' l.a l.b))
    (Graph.links g);
  List.iter
    (fun (att : Graph.host_attachment) ->
      Graph.attach_host g' ~host_uid:att.host_uid ~host_port:att.host_port
        (att.switch, att.switch_port))
    (Graph.hosts g);
  g'

type meas = {
  m_topo : string;
  m_switches : int;
  m_metric : string;  (** "wall" or "CPU" *)
  m_full_s : float;   (** full epoch recompute, best-of seconds *)
  m_delta_s : float;  (** classify + apply, best-of seconds *)
  m_rebuilt : int;
  m_patched : int;
  m_reused : int;
  m_dests : int;
}

let speedup m = m.m_full_s /. m.m_delta_s

let die fmt = Printf.ksprintf (fun s -> print_endline s; exit 1) fmt

(* Epoch 2 of [t] after a non-tree link of its spanning tree dies, both
   ways: returns the full and the delta kernels plus the delta path's
   work counters.  Exits 1 if the fault is not tree-preserving or the two
   paths disagree on any table or on the deadlock verdict — a perf
   number for a wrong answer is worse than no number. *)
let checked_kernels (t : B.t) =
  let g = t.B.graph in
  (* Epoch 1: the full pipeline, committed for reuse. *)
  let { Configuration.tree; updown; routes; assignment; _ } as c =
    Configuration.boot g
  in
  let all = Configuration.tables c in
  let me = Spanning_tree.root tree in
  let own = List.find (fun sp -> Tables.switch sp = me) all in
  let prev =
    Delta.commit_full ~graph:g ~tree ~updown ~routes ~assignment ~own
      ~all:(Some all)
  in
  (* The fault: the median non-tree link (deterministic, and
     representative — on the torus every non-tree link looks alike). *)
  let tree_links =
    List.filter_map
      (fun s ->
        match Spanning_tree.parent tree s with
        | Some p -> Graph.link_at g (s, p.Spanning_tree.my_port)
        | None -> None)
      (Spanning_tree.members tree)
  in
  let non_tree =
    List.filter
      (fun (l : Graph.link) ->
        fst l.a <> fst l.b && not (List.mem l.id tree_links))
      (Graph.links g)
  in
  let drop = (List.nth non_tree (List.length non_tree / 2)).Graph.id in
  let g2 = rebuild_without g ~drop_link:drop in
  let proposals2 =
    List.map
      (fun s ->
        (s, Option.value ~default:1 (Address_assign.number assignment s)))
      (Graph.switches g2)
  in
  (* Epoch 2, both ways.  Each kernel is everything the root computes
     between holding the complete report and handing tables off: tree,
     addresses, routes, every member's table, the deadlock verdict. *)
  let full_kernel () =
    let c2 = Configuration.make g2 ~proposals:proposals2 in
    let all2 = Configuration.tables c2 in
    (all2, Deadlock.check_tables g2 all2)
  in
  let delta_kernel () =
    let tree2 = Spanning_tree.compute g2 ~member:0 in
    let asg2 = Address_assign.make g2 proposals2 in
    match Delta.classify ~prev ~graph:g2 ~tree:tree2 ~assignment:asg2 ~me with
    | Delta.Structural reason ->
      die "bench-delta: FAIL (classified structural: %s)" reason
    | Delta.Tree_preserving ch ->
      Delta.apply ~prev ~graph:g2 ~tree:tree2 ~assignment:asg2 ~me ch
  in
  (* Correctness first: the gate must never pass on a wrong fast path. *)
  let full_all, full_verdict = full_kernel () in
  let committed, stats = delta_kernel () in
  let delta_all =
    match committed.Delta.c_all with
    | Some a -> a
    | None -> die "bench-delta: FAIL (root delta kept no table set)"
  in
  List.iter
    (fun sp ->
      let s = Tables.switch sp in
      if not (Tables.equal_spec delta_all.(s) sp) then
        die "bench-delta: FAIL (table for s%d differs)" s)
    full_all;
  (match (stats.Delta.st_verdict, full_verdict) with
  | Some Deadlock.Acyclic, Deadlock.Acyclic -> ()
  | _ -> die "bench-delta: FAIL (deadlock verdicts differ)");
  (Graph.switch_count g2, full_kernel, delta_kernel, stats)

(* Time the full epoch recompute against the delta fast path. *)
let time_kernels ~topo (switches, full_kernel, delta_kernel, stats) =
  let cores = Domain.recommended_domain_count () in
  let reps = if !smoke then 3 else 5 in
  let target_sample_s = if !smoke then 0.3 else 0.8 in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  ignore (full_kernel ());
  let est = Float.max 1e-6 (Unix.gettimeofday () -. t0) in
  let iters =
    Stdlib.max 1 (int_of_float (Float.ceil (target_sample_s /. est)))
  in
  let f, d =
    best_of_interleaved ~cores ~reps ~iters
      (fun () -> ignore (full_kernel ()))
      (fun () -> ignore (delta_kernel ()))
  in
  { m_topo = topo;
    m_switches = switches;
    m_metric = (if cores >= 2 then "wall" else "CPU");
    m_full_s = f;
    m_delta_s = d;
    m_rebuilt = stats.Delta.st_rebuilt;
    m_patched = stats.Delta.st_patched;
    m_reused = stats.Delta.st_reused;
    m_dests = stats.Delta.st_dests }

let measure (t : B.t) = time_kernels ~topo:t.B.name (checked_kernels t)

let report ?(reps = 0) ?(gate = true) m =
  let r =
    Report.create
      ~title:
        (Printf.sprintf
           "%s%s seconds; %d switches, %d rebuilt / %d patched / %d reused, \
            %d dests re-run"
           (if reps > 0 then
              Printf.sprintf "best of %d interleaved reps, " reps
            else "")
           m.m_metric m.m_switches m.m_rebuilt m.m_patched m.m_reused
           m.m_dests)
      ~columns:[ "path"; "epoch compute"; "speedup"; "gate" ]
  in
  Report.add_row r
    [ "full"; Printf.sprintf "%.2f ms" (1e3 *. m.m_full_s); "1.00x"; "" ];
  Report.add_row r
    [ "delta";
      Printf.sprintf "%.2f ms" (1e3 *. m.m_delta_s);
      Printf.sprintf "%.2fx" (speedup m);
      (if not gate then "-"
       else if speedup m >= threshold then "pass"
       else "FAIL") ];
  Report.print r

(* The deterministic half: correctness plus the work counters. *)
let check_counters (switches, _, _, stats) =
  let tables = stats.Delta.st_rebuilt + stats.Delta.st_patched in
  Printf.printf
    "%d switches: %d tables rebuilt + %d patched (bar <= %d), %d reused, %d \
     dests re-run (bar <= %d)\n"
    switches stats.Delta.st_rebuilt stats.Delta.st_patched max_tables
    stats.Delta.st_reused stats.Delta.st_dests max_dests;
  if tables > max_tables || stats.Delta.st_dests > max_dests then
    die "bench-delta: FAIL (work counters above their bars)"

let run () =
  Exp_common.section
    "bench-delta: incremental reconfiguration gate (16x16 torus, non-tree \
     link fault)";
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let torus = B.attach_hosts (B.torus ~rows:16 ~cols:16 ()) ~per_switch:2 in
  let kernels = checked_kernels torus in
  check_counters kernels;
  if !smoke then
    Printf.printf
      "bench-delta: PASS (correctness and counters; the timed %.2fx bar runs \
       without --smoke)\n\n"
      threshold
  else begin
    let m = time_kernels ~topo:torus.B.name kernels in
    report ~reps:5 m;
    if speedup m >= threshold then
      Printf.printf "bench-delta: PASS (bar %.2fx)\n\n" threshold
    else die "bench-delta: FAIL below %.2fx: %.2fx" threshold (speedup m)
  end

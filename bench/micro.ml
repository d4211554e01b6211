(* Bechamel micro-benchmarks for the algorithmic kernels that the
   reconfiguration's software-time regime is made of: spanning-tree
   computation, up*/down* orientation, route BFS, forwarding-table
   synthesis, channel-dependency analysis and topology-report codec.
   These are the costs the paper's 68000 paid in its table_load_time.

   The two kernels that dominate the root's epoch latency — table
   synthesis and the deadlock check — are measured three ways: the
   domain-pool parallel path the pipeline runs (bare kernel name, pool
   sized by AUTONET_DOMAINS / the machine), the same code on one domain
   ([_serial]) and pinned to a 4-domain pool ([_d4], the scaling
   column).  Topologies: the 30-switch SRC service LAN, a 64-switch
   torus (diameter 8, the paper's "function of the maximum
   switch-to-switch distance" regime) and — outside smoke mode — a
   256-switch 16x16 torus for scaling.  Every topology also times the
   per-epoch [tree_children], [deadlock_certifies] and
   [msg_encode_complete] rows, and SRC the tree-position codec.  The
   event engine is timed on two queue shapes, in ns per event.  With
   [--json FILE] the ns/op, parallel speedups and the domain and core
   counts are written as JSON (schema v10; v8 added those rows, v9
   made the telemetry-overhead record two modes and v10 added the
   [engine] block), with that record and the [delta] block
   — full-epoch vs incremental-reconfiguration cost on the scaling torus
   after a non-tree link fault, measured by {!Exp_delta.measure}: the
   perf trajectory future changes regress against.  The kernels'
   correctness oracles are test-only (test/reference.ml). *)

open Bechamel
open Toolkit
open Autonet_core
module B = Autonet_topo.Builders
module Pool = Autonet_parallel.Pool
module Messages = Autonet_autopilot.Messages
module Engine = Autonet_sim.Engine
module Sim_time = Autonet_sim.Time

(* Options, set by [main.ml] before dispatch. *)
let json_path : string option ref = ref None
let smoke = ref false

type ctx = {
  topo_name : string;
  g : Graph.t;
  tree : Spanning_tree.t;
  updown : Updown.t;
  routes : Routes.t;
  assignment : Address_assign.t;
  specs : Tables.spec list;
}

let make_ctx (t : B.t) =
  let c = Configuration.boot t.B.graph in
  { topo_name = t.B.name; g = c.graph; tree = c.tree; updown = c.updown;
    routes = c.routes; assignment = c.assignment;
    specs = Configuration.tables c }

(* The kernels every topology measures; table synthesis and the deadlock
   check also run serially and on the 4-domain pool. *)
let paired_tests pool pool4 c =
  [ Test.make ~name:"spanning_tree"
      (Staged.stage (fun () -> Spanning_tree.compute c.g ~member:0));
    Test.make ~name:"updown_orient"
      (Staged.stage (fun () -> Updown.orient c.g c.tree));
    Test.make ~name:"routes_bfs"
      (Staged.stage (fun () -> Routes.compute c.g c.tree c.updown));
    Test.make ~name:"tables_all_switches"
      (Staged.stage (fun () ->
           Tables.build_all ~pool c.g c.tree c.updown c.routes c.assignment));
    Test.make ~name:"tables_all_switches_serial"
      (Staged.stage (fun () ->
           Tables.build_all c.g c.tree c.updown c.routes c.assignment));
    Test.make ~name:"tables_all_switches_d4"
      (Staged.stage (fun () ->
           Tables.build_all ~pool:pool4 c.g c.tree c.updown c.routes
             c.assignment));
    Test.make ~name:"deadlock_check"
      (Staged.stage (fun () -> Deadlock.check_tables ~pool c.g c.specs));
    Test.make ~name:"deadlock_check_serial"
      (Staged.stage (fun () -> Deadlock.check_tables c.g c.specs));
    Test.make ~name:"deadlock_check_d4"
      (Staged.stage (fun () -> Deadlock.check_tables ~pool:pool4 c.g c.specs)) ]

(* The full topology report the root would accumulate. *)
let report_of g =
  List.fold_left
    (fun acc s ->
      let used =
        List.filter_map
          (fun p ->
            match Graph.host_at g (s, p) with
            | Some _ -> Some (p, Topology_report.Host_port)
            | None -> (
              match Graph.link_at g (s, p) with
              | Some l_id -> (
                match Graph.link g l_id with
                | Some l ->
                  let peer, peer_port = Graph.other_end l s in
                  Some
                    ( p,
                      Topology_report.Switch_link
                        { peer = Graph.uid g peer; peer_port } )
                | None -> None)
              | None -> None))
          (Graph.used_ports g s)
      in
      let d =
        Topology_report.switch_desc ~uid:(Graph.uid g s) ~proposed_number:1
          ~max_ports:(Graph.max_ports g) used
      in
      match acc with
      | None -> Some (Topology_report.singleton ~max_ports:(Graph.max_ports g) d)
      | Some r ->
        Some
          (Topology_report.merge r
             (Topology_report.singleton ~max_ports:(Graph.max_ports g) d)))
    None (Graph.switches g)
  |> Option.get

(* What every switch does once per epoch, measured on every topology:
   its children in the tree (all members' here), the delta path's
   deadlock certification (every spec), and encoding the [Complete]
   message that floods the report (its bytes already memoized). *)
let epoch_tests c =
  let members = Array.of_list (Spanning_tree.members c.tree) in
  let cert = Deadlock.certificate c.g c.tree in
  let complete =
    Messages.Complete
      { epoch = Epoch.zero; seq = 1; report = report_of c.g }
  in
  ignore (Messages.encode complete);
  [ Test.make ~name:"tree_children"
      (Staged.stage (fun () ->
           Array.iter
             (fun s ->
               ignore (Sys.opaque_identity (Spanning_tree.children c.tree s)))
             members));
    Test.make ~name:"deadlock_certifies"
      (Staged.stage (fun () ->
           List.for_all (Deadlock.certifies cert c.g c.updown) c.specs));
    Test.make ~name:"msg_encode_complete"
      (Staged.stage (fun () -> Messages.encode complete)) ]

(* Unpaired kernels measured on the SRC topology only, to keep the
   historical table, and the codec of the most frequent control
   message, a tree position. *)
let src_extra_tests c =
  let report = report_of c.g in
  let position =
    let level = Spanning_tree.level c.tree in
    let deepest =
      List.fold_left
        (fun a s -> if level s > level a then s else a)
        0 (Spanning_tree.members c.tree)
    in
    Messages.Tree_position
      { epoch = Epoch.next Epoch.zero;
        seq = 7;
        position = Spanning_tree.position c.tree c.g deepest }
  in
  let encoded_position = Messages.encode position in
  let encoded_report =
    let w = Autonet_net.Wire.Writer.create () in
    Topology_report.encode w report;
    Autonet_net.Wire.Writer.contents w
  in
  [ Test.make ~name:"tables_one_switch"
      (Staged.stage (fun () ->
           Tables.build c.g c.tree c.updown c.routes c.assignment 0));
    Test.make ~name:"report_encode"
      (Staged.stage (fun () ->
           let w = Autonet_net.Wire.Writer.create () in
           Topology_report.encode w report));
    Test.make ~name:"report_decode"
      (Staged.stage (fun () ->
           Topology_report.decode
             (Autonet_net.Wire.Reader.of_string encoded_report)));
    Test.make ~name:"report_to_graph"
      (Staged.stage (fun () -> Topology_report.to_graph report));
    Test.make ~name:"msg_encode_tree_position"
      (Staged.stage (fun () -> Messages.encode position));
    Test.make ~name:"msg_decode_tree_position"
      (Staged.stage (fun () -> Messages.decode encoded_position)) ]

(* The event engine on two queue shapes.  Periodic-heavy: 768
   [Engine.every] timers, 256 on each of [Params.fast]'s periods (status
   sampler, retransmission, connectivity probe), every fourth firing
   scheduling a one-shot 20 us later, as a packet it sent would arrive:
   few instants, many events on each.  All-distinct: 2,000 one-shots at
   random instants, each its own run, the queue's worst case. *)
let periodic_batch = 1_000
let distinct_events = 2_000

let periodic_engine () =
  let e = Engine.create () and fired = ref 0 in
  let firing () =
    incr fired;
    if !fired land 3 = 0 then
      ignore (Engine.schedule e ~delay:(Sim_time.us 20) ignore)
  in
  List.iter
    (fun period ->
      for _ = 1 to 256 do
        ignore (Engine.every e ~period firing)
      done)
    [ Sim_time.ms 10; Sim_time.ms 60; Sim_time.ms 500 ];
  e

let distinct_delays =
  let rng = Autonet_sim.Rng.create ~seed:1L in
  Array.init distinct_events (fun _ -> Autonet_sim.Rng.int rng 1_000_000_000)

let run_distinct e =
  Array.iter
    (fun delay -> ignore (Engine.schedule e ~delay ignore))
    distinct_delays;
  Engine.run e

(* (row, events per call, its staged call, runs the queue opens per
   event: the deterministic work counter next to the wall time). *)
let engine_shapes () =
  let periodic = periodic_engine () and distinct = Engine.create () in
  let runs_per_event e =
    float_of_int (Engine.runs_opened e)
    /. float_of_int (Engine.events_executed e)
  in
  let counted = periodic_engine () and counted_distinct = Engine.create () in
  Engine.run counted ~max_events:(100 * periodic_batch);
  run_distinct counted_distinct;
  [ ( "periodic_heavy", periodic_batch,
      (fun () -> Engine.run periodic ~max_events:periodic_batch),
      runs_per_event counted );
    ( "all_distinct", distinct_events,
      (fun () -> run_distinct distinct),
      runs_per_event counted_distinct ) ]

let quota_s () = if !smoke then 0.01 else 0.25

(* Run one topology's tests and return (kernel name, ns/op), kernel
   names stripped of the bechamel group prefix.  [quota_mult] stretches
   the time budget for topologies whose kernels run into the hundreds
   of milliseconds — at the default quota they would get only one or
   two samples and the OLS estimate degenerates into GC noise. *)
let measure ?(quota_mult = 1.0) tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg
      ~limit:(if !smoke then 50 else 300)
      ~quota:(Time.second (quota_s () *. quota_mult))
      ~kde:None ()
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (v :: _) -> v
        | _ -> nan
      in
      let short =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      rows := (short, est) :: !rows)
    results;
  List.sort compare !rows

(* Time the engine shapes and print them: (row, ns per fired event,
   runs per event). *)
let engine_rows () =
  let shapes = engine_shapes () in
  let ns =
    measure
      (List.map
         (fun (name, _, call, _) -> Test.make ~name (Staged.stage call))
         shapes)
  in
  let rows =
    List.map
      (fun (name, events, _, runs) ->
        (name, List.assoc name ns /. float_of_int events, runs))
      shapes
  in
  let r =
    Autonet_analysis.Report.create ~title:"event engine, per fired event"
      ~columns:[ "queue shape"; "ns/event"; "runs/event" ]
  in
  List.iter
    (fun (name, ns, runs) ->
      Autonet_analysis.Report.add_row r
        [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.4f" runs ])
    rows;
  Autonet_analysis.Report.print r;
  rows

let pp_ns ns =
  if Float.is_nan ns then "-"
  else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let is_variant name =
  Filename.check_suffix name "_serial" || Filename.check_suffix name "_d4"

let speedup_cell num den =
  match (num, den) with
  | Some v, d when (not (Float.is_nan v)) && not (Float.is_nan d) ->
    Printf.sprintf "%.1fx" (v /. d)
  | _ -> "-"

let print_table title rows =
  let r =
    Autonet_analysis.Report.create ~title
      ~columns:
        [ "kernel"; "pipeline"; "serial"; "4 domains"; "vs serial";
          "4-dom spd" ]
  in
  List.iter
    (fun (name, ns) ->
      if not (is_variant name) then begin
        let serial_ns = List.assoc_opt (name ^ "_serial") rows in
        let d4_ns = List.assoc_opt (name ^ "_d4") rows in
        let cell = function Some v -> pp_ns v | None -> "-" in
        let d4_speedup =
          (* serial ns over the 4-domain pool's ns: the scaling headline. *)
          match (serial_ns, d4_ns) with
          | Some s, Some d when not (Float.is_nan d) -> speedup_cell (Some s) d
          | _ -> "-"
        in
        Autonet_analysis.Report.add_row r
          [ name; pp_ns ns; cell serial_ns; cell d4_ns;
            speedup_cell serial_ns ns; d4_speedup ]
      end)
    rows;
  Autonet_analysis.Report.print r

let json_of_topology buf (name, g, dia, rows) =
  let kernel_json (kname, ns) =
    if is_variant kname then None
    else begin
      let b = Buffer.create 128 in
      Printf.bprintf b "      { \"name\": %S, \"ns_per_op\": %.1f" kname ns;
      (match List.assoc_opt (kname ^ "_serial") rows with
      | Some serial_ns ->
        Printf.bprintf b
          ", \"serial_ns_per_op\": %.1f, \"parallel_speedup\": %.2f" serial_ns
          (serial_ns /. ns);
        (match List.assoc_opt (kname ^ "_d4") rows with
        | Some d4_ns ->
          Printf.bprintf b
            ", \"d4_ns_per_op\": %.1f, \"parallel_speedup_d4\": %.2f" d4_ns
            (serial_ns /. d4_ns)
        | None -> ())
      | None -> ());
      Buffer.add_string b " }";
      Some (Buffer.contents b)
    end
  in
  Printf.bprintf buf
    "    { \"name\": %S,\n      \"switches\": %d, \"links\": %d, \"diameter\": %d,\n      \"kernels\": [\n%s\n    ] }"
    name (Graph.switch_count g) (Graph.link_count g) dia
    (String.concat ",\n" (List.filter_map kernel_json rows))

(* Since schema v3 the record includes what the telemetry subsystem
   itself costs (E17's headline number) next to the kernel trajectory.
   Since v9 that is two modes: wall seconds for a boot plus one
   reconfiguration with no instruments (the default) and with
   everything counting, including causal tracing (the per-switch
   milestone and parentage marks the causal view replays). *)
let json_of_overhead buf (o : Exp_telemetry.overhead) =
  Printf.bprintf buf
    "  \"telemetry_overhead\": {\n\
    \    \"topology\": %S, \"repeats\": %d, \"includes_causal_tracing\": true,\n\
    \    \"disabled_s\": %.4f, \"on_s\": %.4f, \"on_overhead_pct\": %.2f\n\
    \  },\n"
    o.Exp_telemetry.o_topo o.Exp_telemetry.o_repeats
    o.Exp_telemetry.o_disabled_s o.Exp_telemetry.o_on_s
    (Exp_telemetry.on_pct o)

(* Since schema v5 the record also carries the incremental
   reconfiguration headline: what a tree-preserving fault costs through
   the delta fast path next to the full epoch recompute it replaces, on
   the scaling torus (see bench/exp_delta.ml, which gates the same
   number at 5x). *)
let json_of_delta buf (m : Exp_delta.meas) =
  Printf.bprintf buf
    "  \"delta\": {\n\
    \    \"topology\": %S, \"switches\": %d, \"metric\": %S,\n\
    \    \"full_ns_per_op\": %.0f, \"delta_ns_per_op\": %.0f, \"speedup\": %.2f,\n\
    \    \"rebuilt\": %d, \"patched\": %d, \"reused\": %d, \"dests_rerun\": %d\n\
    \  },\n"
    m.Exp_delta.m_topo m.Exp_delta.m_switches m.Exp_delta.m_metric
    (1e9 *. m.Exp_delta.m_full_s)
    (1e9 *. m.Exp_delta.m_delta_s)
    (Exp_delta.speedup m) m.Exp_delta.m_rebuilt m.Exp_delta.m_patched
    m.Exp_delta.m_reused m.Exp_delta.m_dests

(* Since schema v10: the event engine's two queue shapes, ns per fired
   event and the runs the queue opened per event. *)
let json_of_engine buf rows =
  Printf.bprintf buf "  \"engine\": {\n%s\n  },\n"
    (String.concat ",\n"
       (List.map
          (fun (name, ns, runs) ->
            Printf.sprintf
              "    %S: { \"ns_per_event\": %.1f, \"runs_per_event\": %.4f }"
              name ns runs)
          rows))

let write_json path ~domains ~overhead ~delta ~engine topologies =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"schema\": \"autonet-bench-micro\",\n  \"version\": 10,\n  \"quota_s\": %.3f,\n  \"smoke\": %b,\n  \"domains\": %d,\n  \"cores\": %d,\n"
    (quota_s ()) !smoke domains
    (Domain.recommended_domain_count ());
  json_of_overhead buf overhead;
  json_of_delta buf delta;
  json_of_engine buf engine;
  Buffer.add_string buf "  \"topologies\": [\n";
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_string buf ",\n";
      json_of_topology buf t)
    topologies;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let run () =
  Exp_common.section "Micro-benchmarks: reconfiguration kernels (bechamel)";
  (* Price the telemetry instruments before bechamel grows the heap and
     skews wall-clock runs; only needed when writing the JSON record. *)
  let overhead =
    match !json_path with
    | None -> None
    | Some _ ->
      Some
        (Exp_telemetry.measure_overhead
           ~repeats:(if !smoke then 1 else 5)
           ~topo:"SRC" (fun () -> B.src_service_lan ()))
  in
  (* The engine shapes run before the kernels fill the heap with their
     tables: with those live, every word a handle allocates carries more
     major-GC work, which hides the queue's own cost. *)
  let engine = engine_rows () in
  let pool = Pool.create () in
  let pool4 = Pool.create ~domains:4 () in
  Printf.printf
    "domain pool: %d domain(s) (AUTONET_DOMAINS or recommended count); \
     fixed 4-domain pool for the _d4 scaling column\n%!"
    (Pool.domains pool);
  Pool.set_metrics_enabled pool4 true;
  let src = make_ctx (B.src_service_lan ()) in
  let big = make_ctx (B.attach_hosts (B.torus ~rows:8 ~cols:8 ()) ~per_switch:2) in
  let src_rows =
    measure (paired_tests pool pool4 src @ epoch_tests src @ src_extra_tests src)
  in
  print_table
    "per-call cost on the 30-switch SRC topology (parallel pipeline vs serial)"
    src_rows;
  let big_rows = measure (paired_tests pool pool4 big @ epoch_tests big) in
  print_table "per-call cost on the 64-switch torus (diameter 8)" big_rows;
  let scaling =
    if !smoke then None
    else begin
      let huge =
        make_ctx (B.attach_hosts (B.torus ~rows:16 ~cols:16 ()) ~per_switch:2)
      in
      let rows =
        measure ~quota_mult:8.0 (paired_tests pool pool4 huge @ epoch_tests huge)
      in
      print_table "per-call cost on the 256-switch 16x16 torus (scaling)" rows;
      Some (huge, rows)
    end
  in
  (* Cumulative over every bechamel iteration of the _d4 kernels: how the
     batches actually landed across the four domains. *)
  print_string "4-domain pool scheduling (cumulative over all _d4 runs):\n";
  print_string
    (Autonet_telemetry.Metrics.render (Pool.sched_snapshot pool4));
  print_newline ();
  Printf.printf
    "(these are the software costs behind table_load_time: the paper's 68000\n\
    \ paid them at roughly 100x a modern core's prices)\n\n";
  (match (!json_path, overhead) with
  | Some path, Some overhead ->
    (* The incremental-reconfiguration headline, on the same scaling
       torus the e18 gate uses (the 8x8 stands in under smoke). *)
    let delta =
      Exp_delta.measure
        (if !smoke then
           B.attach_hosts (B.torus ~rows:8 ~cols:8 ()) ~per_switch:2
         else B.attach_hosts (B.torus ~rows:16 ~cols:16 ()) ~per_switch:2)
    in
    Exp_delta.report ~gate:false delta;
    let topo c rows = (c.topo_name, c.g, Exp_common.diameter c.g, rows) in
    write_json path ~domains:(Pool.domains pool) ~overhead ~delta ~engine
      ([ topo src src_rows; topo big big_rows ]
      @ match scaling with Some (c, rows) -> [ topo c rows ] | None -> [])
  | _ -> ());
  Pool.shutdown pool4;
  Pool.shutdown pool

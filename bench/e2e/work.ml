(* The four workloads, each run two ways: the untraced leg that the
   end-to-end metrics come from, and the traced leg ([Layers]) that
   attributes the time to layers.  Both legs report the same
   deterministic fields, which must agree exactly. *)

open Autonet_core
module B = Autonet_topo.Builders
module F = Autonet_topo.Faults
module N = Autonet.Network
module AP = Autonet_autopilot.Autopilot
module Fabric = Autonet_autopilot.Fabric
module Params = Autonet_autopilot.Params
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module Rng = Autonet_sim.Rng
module Pool = Autonet_parallel.Pool
module Chaos = Autonet_chaos.Chaos
module Fuzz = Autonet_chaos.Fuzz
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline

let clock = Layers.clock

(* The domain count every pool of the process uses. *)
let domains = ref 1

(* A failed check: the measured value, the expected one. *)
type mismatch = { what : string; measured : string; expected : string }

let mismatches : mismatch list ref = ref []

let mismatch what ~measured ~expected =
  mismatches := { what; measured; expected } :: !mismatches

let fatal fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 1) fmt

(* --- Workload definitions --------------------------------------------- *)

type single = {
  topo : unit -> B.t;
  params : Params.t;
  cycle : Rng.t -> Graph.t -> F.event list;
      (** one seeded cycle of faults, each followed by a reconfiguration *)
}

(* What one round of a workload is. *)
type kind =
  | Single of single  (** one reconfiguration *)
  | Campaign of Chaos.config * int  (** [Chaos.run_campaign] of that many schedules *)
  | Fuzzing of Fuzz.config  (** one [Fuzz.run] of its budget *)

type t = {
  name : string;
  kind : kind;
  trace_rounds : int;  (** the traced run's fixed size, in rounds *)
  setups : int;  (** set-ups per run; [setup_s] is their median *)
}

(* A seeded non-tree link of the reference spanning tree, down then up:
   the delta path, twice. *)
let flap_cycle rng g =
  let tree = Spanning_tree.compute g ~member:0 in
  let non_tree =
    List.filter
      (fun (l : Graph.link) ->
        (not (Graph.is_loop l)) && not (Spanning_tree.is_tree_link tree l.id))
      (Graph.links g)
  in
  let l = (Rng.pick rng non_tree).Graph.id in
  [ F.Link_down l; F.Link_up l ]

(* A seeded link flap and a seeded switch reboot: delta and structural
   reconfigurations mixed. *)
let src_cycle rng g =
  let l = (Rng.pick rng (Graph.links g)).Graph.id in
  let s = Rng.int rng (Graph.switch_count g) in
  [ F.Link_down l; F.Link_up l; F.Switch_down s; F.Switch_up s ]

let torus n =
  Single
    { topo = (fun () -> B.attach_hosts (B.torus ~rows:n ~cols:n ()) ~per_switch:2);
      params = Params.fast;
      cycle = flap_cycle }

let src_lan =
  Single
    { topo = (fun () -> B.src_service_lan ()); params = Params.tuned;
      cycle = src_cycle }

(* [Fuzz.default], as [chaos --fuzz] runs it: batch 8, schedules
   stretched up to 128 horizons; only the budget is set. *)
let fuzz_config budget =
  Fuzzing
    { (Fuzz.default { Chaos.default_config with topo = "random:8,4" }) with
      budget }

let all =
  [ (* One set-up: a boot takes about 5.5 s, and a second would push the
       four workloads past 90 s together.  A round is one reconfiguration
       (about 4.3 s), not a down-up cycle, so a run that just misses its
       last round loses a quarter of its sample, not half. *)
    { name = "torus256_flap"; kind = torus 16; trace_rounds = 2; setups = 1 };
    (* The set-ups below take 60 to 170 ms each, so a run takes many and
       reports their median. *)
    { name = "src_faults"; kind = src_lan; trace_rounds = 100; setups = 9 };
    (* Rounds of 16 schedules, so that several rounds, each a campaign of
       its own seed, fit a run: one schedule's wall varies tenfold with
       its seed. *)
    { name = "src_chaos"; kind = Campaign (Chaos.default_config, 16);
      trace_rounds = 1; setups = 15 };
    (* Rounds of 100 executions, each a campaign of its own seed: one
       campaign's rate varies threefold with its seed (coefficient of
       variation about 0.25, at budget 100 and at the default 200 alike),
       and the four or five campaigns of 200 that fit a run left the
       rate's seed-to-seed spread near its bound. *)
    { name = "fuzz_random"; kind = fuzz_config 100; trace_rounds = 1;
      setups = 20 } ]

(* The determinism smoke: the same mechanisms at sizes that run in
   seconds. *)
let smoke =
  [ { name = "torus16_flap"; kind = torus 4; trace_rounds = 6; setups = 1 };
    { name = "src_faults"; kind = src_lan; trace_rounds = 16; setups = 1 };
    { name = "torus9_chaos";
      kind = Campaign ({ Chaos.default_config with topo = "torus:3,3" }, 4);
      trace_rounds = 1; setups = 1 };
    { name = "fuzz_random"; kind = fuzz_config 24; trace_rounds = 1;
      setups = 1 } ]

(* --- Rounds -------------------------------------------------------------- *)

type budget = Fixed of int | Window of float

(* Run whole rounds: a fixed number, or as many as fit the window — a
   round is started only if the previous one's duration still fits, so
   the count does not flip between runs on a round that just overruns. *)
let rounds budget f =
  let t0 = clock () in
  let rec go n last =
    let more =
      match budget with
      | Fixed k -> n < k
      | Window s -> n = 0 || clock () -. t0 +. last <= s
    in
    if more then begin
      let c0 = clock () in
      f n;
      go (n + 1) (clock () -. c0)
    end
    else n
  in
  go 0 0.

(* Round [k]'s campaign seed; round 0 is [seed] itself, as the CLI's
   [--seed] would be. *)
let campaign_seed ~seed k =
  Int64.(add (of_int seed) (mul (of_int k) 0x1_0000_0000L))

(* --- The untraced leg --------------------------------------------------- *)

type untraced = {
  u_setup : float list;  (** seconds, one per set-up *)
  u_walls : float list;  (** seconds per unit, when measured per unit *)
  u_sims : float list;  (** simulated reconfiguration times, ms *)
  u_work : float;  (** wall seconds the units took together *)
  u_units : int;  (** reconfigurations, schedules or executions *)
  u_failed : int;
  u_cells : int;  (** fuzz coverage cells *)
  u_det : (string * string) list;  (** deterministic fields *)
}

let boot s ~seed ~telemetry =
  let net = N.create ~params:s.params ~seed:(Int64.of_int seed) ~telemetry (s.topo ()) in
  N.start net;
  net

let converge_boot net =
  match N.run_until_converged ~timeout:(Time.s 120) net with
  | Some _ -> ()
  | None -> fatal "the network did not converge at boot"

let event_label = function
  | F.Link_down l -> Printf.sprintf "link_down:%d" l
  | F.Link_up l -> Printf.sprintf "link_up:%d" l
  | F.Switch_down s -> Printf.sprintf "switch_down:%d" s
  | F.Switch_up s -> Printf.sprintf "switch_up:%d" s

(* One reconfiguration's outcome, checked outside the timed interval. *)
let check_unit i ev (m : N.reconfiguration_measure option) net =
  let ok =
    match m with
    | None -> false
    | Some _ -> N.verify_against_reference net
  in
  if not ok then
    mismatch
      (Printf.sprintf "reconfiguration %d (%s)" i (event_label ev))
      ~measured:(if m = None then "timed out" else "verify_against_reference=false")
      ~expected:"converged and verify_against_reference=true";
  ok

(* The faults of a single-network run, one per call: the seeded cycles'
   events in order, the next cycle drawn from the network as it then is. *)
let faults s ~seed net =
  let rng = Rng.create ~seed:(Int64.of_int seed) and pending = ref [] in
  fun () ->
    if !pending = [] then pending := s.cycle rng (N.graph net);
    let ev = List.hd !pending in
    pending := List.tl !pending;
    ev

let render_sims sims =
  String.concat "," (List.map (fun x -> Printf.sprintf "%.6f" x) sims)

let single_untraced s ~seed ~setups ~budget =
  let net = ref None and times = ref [] in
  for _ = 1 to setups do
    net := None;
    let t0 = clock () in
    let n = boot s ~seed ~telemetry:`Disabled in
    converge_boot n;
    times := (clock () -. t0) :: !times;
    net := Some n
  done;
  let net = Option.get !net in
  let next = faults s ~seed net in
  let walls = ref [] and sims = ref [] and failed = ref 0 and oks = ref [] in
  let i = ref 0 in
  ignore
    (rounds budget (fun _ ->
         let ev = next () in
         let w0 = clock () in
         let m =
           N.measure_reconfiguration net ~trigger:(fun t -> N.apply_fault t ev)
         in
         walls := (clock () -. w0) :: !walls;
         Option.iter
           (fun (m : N.reconfiguration_measure) ->
             sims := Time.to_float_ms m.reconfiguration :: !sims)
           m;
         let ok = check_unit !i ev m net in
         if not ok then incr failed;
         oks := ok :: !oks;
         incr i));
  let walls = List.rev !walls and sims = List.rev !sims in
  { u_setup = List.rev !times;
    u_walls = walls;
    u_sims = sims;
    u_work = List.fold_left ( +. ) 0. walls;
    u_units = !i;
    u_failed = !failed;
    u_cells = 0;
    u_det =
      [ ("sim.events", string_of_int (Engine.events_executed (N.engine net)));
        ("fabric.packets",
         string_of_int (Fabric.stats (N.fabric net)).Fabric.packets_sent);
        ("sim_reconfig_ms", render_sims sims);
        ("verified",
         String.concat "," (List.rev_map string_of_bool !oks)) ] }

(* Pool spawn, the campaign config, and [boots] boots of the campaign's
   topology to convergence (seeds [seed], [seed + 1], ...): what a
   campaign pays before its first results.  The last set-up's pool runs
   the campaign. *)
let campaign_setup (cfg : Chaos.config) ~boots ~seed ~setups =
  let pool = ref None and times = ref [] in
  for _ = 1 to setups do
    Option.iter Pool.shutdown !pool;
    let t0 = clock () in
    let p = Pool.create ~domains:!domains () in
    for b = 0 to boots - 1 do
      let seed = Int64.of_int (seed + b) in
      let topo = Chaos.build_topo cfg.topo ~seed ~hosts:cfg.hosts in
      let net = N.create ~params:cfg.params ~seed topo in
      N.start net;
      match N.run_until_converged ~timeout:cfg.timeout net with
      | Some _ -> ()
      | None -> fatal "the campaign topology did not converge at boot"
    done;
    times := (clock () -. t0) :: !times;
    pool := Some p
  done;
  (List.rev !times, Option.get !pool)

let verdict_lines vs =
  List.map (fun v -> Format.asprintf "%a" Chaos.pp_verdict v) vs

let chaos_untraced cfg ~n ~seed ~setups ~budget =
  let times, pool = campaign_setup cfg ~boots:1 ~seed ~setups in
  (* The hook adds no invariant; it only reads each schedule's final
     network, so the verdicts are the campaign's own. *)
  let events = Atomic.make 0 and packets = Atomic.make 0 in
  let hook net =
    ignore (Atomic.fetch_and_add events (Engine.events_executed (N.engine net)));
    ignore
      (Atomic.fetch_and_add packets
         (Fabric.stats (N.fabric net)).Fabric.packets_sent);
    []
  in
  let verdicts = ref [] and work = ref 0. in
  ignore
    (rounds budget (fun k ->
         let t0 = clock () in
         let vs =
           Chaos.run_campaign ~pool ~hook cfg ~seed:(campaign_seed ~seed k)
             ~schedules:n
         in
         work := !work +. (clock () -. t0);
         verdicts := !verdicts @ Array.to_list vs));
  Pool.shutdown pool;
  let failed = List.filter (fun v -> not (Chaos.passed v)) !verdicts in
  List.iter
    (fun v ->
      mismatch
        (Printf.sprintf "schedule %d" v.Chaos.index)
        ~measured:(Format.asprintf "%a" Chaos.pp_verdict v)
        ~expected:"PASS")
    failed;
  { u_setup = times;
    u_walls = [];
    u_sims = [];
    u_work = !work;
    u_units = List.length !verdicts;
    u_failed = List.length failed;
    u_cells = 0;
    u_det =
      [ ("sim.events", string_of_int (Atomic.get events));
        ("fabric.packets", string_of_int (Atomic.get packets));
        ("verdicts", String.concat "\n" (verdict_lines !verdicts)) ] }

let fuzz_det (r : Fuzz.result) =
  [ ("executed", string_of_int r.r_executed);
    ("coverage_cells", string_of_int r.r_cells);
    ("corpus", string_of_int r.r_distinct);
    ("failures", string_of_int (List.length r.r_failures));
    ("corpus_digest",
     Digest.to_hex (Digest.string (Fuzz.corpus_to_string r.r_corpus))) ]

(* The fuzzer's mutations can power off every switch.  Such a network
   has no live component, [Network.converged] is false by definition,
   and the oracle reports it not converged.  Replaying a failing entry
   (outside the timed interval) tells that expected outcome apart from
   a real failure.  Returns the number of real failures. *)
let fuzz_failures (cfg : Fuzz.config) (r : Fuzz.result) =
  List.length
    (List.filter
       (fun (e : Fuzz.entry) ->
         let net, vs =
           Chaos.run_schedule cfg.chaos ~seed:e.e_seed ~schedule:e.e_schedule
         in
         let all_dark =
           vs = [ Autonet_chaos.Oracle.Not_converged ] && N.live_components net = []
         in
         if not all_dark then
           mismatch
             (Printf.sprintf "fuzz execution seed=0x%016Lx" e.e_seed)
             ~measured:(String.concat "," e.e_violations)
             ~expected:"no oracle violation";
         not all_dark)
       r.r_failures)

let fuzz_untraced (cfg : Fuzz.config) ~seed ~setups ~budget =
  (* One network per batch slot: the networks are tiny, and a single
     boot is a few milliseconds, too short to time steadily. *)
  let times, pool = campaign_setup cfg.chaos ~boots:cfg.batch ~seed ~setups in
  let results = ref [] and work = ref 0. and failed = ref 0 in
  ignore
    (rounds budget (fun k ->
         let t0 = clock () in
         let r = Fuzz.run ~pool cfg ~seed:(campaign_seed ~seed k) in
         work := !work +. (clock () -. t0);
         failed := !failed + fuzz_failures cfg r;
         results := !results @ [ r ]));
  Pool.shutdown pool;
  let total f = List.fold_left (fun a r -> a + f r) 0 !results in
  { u_setup = times;
    u_walls = [];
    u_sims = [];
    u_work = !work;
    u_units = total (fun r -> r.Fuzz.r_executed);
    u_failed = !failed;
    u_cells = (List.hd !results).Fuzz.r_cells;
    u_det = fuzz_det (List.hd !results) }

let untraced w ~seed ~setups ~budget =
  match w.kind with
  | Single s -> single_untraced s ~seed ~setups ~budget
  | Campaign (cfg, n) -> chaos_untraced cfg ~n ~seed ~setups ~budget
  | Fuzzing cfg -> fuzz_untraced cfg ~seed ~setups ~budget

(* --- The traced leg ---------------------------------------------------- *)

type traced = {
  t_rec : Layers.t;  (** the units' windows: spans, samples, sums *)
  t_spans : Layers.span list;  (** spans outside the units (boot) *)
  t_units : int;  (** units the per-unit means divide by *)
  t_work : float;  (** traced wall comparable to [u_work] *)
  t_det : (string * string) list;
}

let sum_stats net f =
  let g = N.graph net in
  let acc = ref 0 in
  for s = 0 to Graph.switch_count g - 1 do
    acc := !acc + f (AP.stats (N.autopilot net s))
  done;
  !acc

let started (s : AP.stats) = s.reconfigurations_started
let completed (s : AP.stats) = s.configurations_completed

(* Autopilot counters of a run so far: epochs started and completed,
   and the delta fast path's telemetry counters. *)
let autopilot_counts net =
  let snap = N.telemetry_snapshot net in
  [ ("autopilot.epochs", sum_stats net started);
    ("autopilot.completed", sum_stats net completed);
    ("autopilot.delta_hits", Metrics.counter_value snap "autopilot.delta_hits");
    ("autopilot.delta_fallbacks",
     Metrics.counter_value snap "autopilot.delta_fallbacks");
    ("autopilot.tables_rebuilt",
     Metrics.counter_value snap "autopilot.delta_switches_rebuilt");
    ("fabric.packets", (Fabric.stats (N.fabric net)).Fabric.packets_sent);
    ("fabric.bytes", (Fabric.stats (N.fabric net)).Fabric.bytes_sent) ]

let add_counts r ?(minus = []) counts =
  List.iter
    (fun (k, v) ->
      Layers.add r k
        (float_of_int (v - Option.value ~default:0 (List.assoc_opt k minus))))
    counts

let note_queue r net =
  let q = float_of_int (Engine.max_queue_length (N.engine net)) in
  Hashtbl.replace r.Layers.sums "sim.max_queue"
    (Float.max q (Layers.sum r "sim.max_queue"))

(* Pool metrics of [pool] go quiet while a replay runs, so the counters
   hold the simulation's own calls only. *)
let quietly pool f =
  let on = Pool.metrics_enabled pool in
  Pool.set_metrics_enabled pool false;
  Fun.protect ~finally:(fun () -> Pool.set_metrics_enabled pool on) f

let note_pool r pool =
  let m = Pool.metrics_snapshot pool and s = Pool.sched_snapshot pool in
  Layers.add r "pool.calls" (float_of_int (Metrics.counter_value m "pool.calls"));
  Layers.add r "pool.items" (float_of_int (Metrics.counter_value m "pool.items"));
  Layers.add r "pool.steals"
    (float_of_int (Metrics.scalar_value s "pool.worker_steals"))

let single_traced s ~seed ~reconfigs =
  let pool = Pool.default () in
  Pool.set_metrics_enabled pool true;
  let boot_r = Layers.create () in
  boot_r.Layers.cause <- "boot";
  let net = boot s ~seed ~telemetry:`On in
  if Layers.until_converged boot_r ~timeout:(Time.s 120) net = None then
    fatal "the network did not converge at boot";
  let prev = Layers.committed () in
  (* Seed the replay's committed state with the booted epoch, so the
     first fault's replay can follow the delta path too. *)
  quietly pool (fun () ->
      Option.iter
        (Layers.replay (Layers.create ()) ~prev ~pool)
        (Layers.capture net ~configured:0));
  let r = Layers.create () in
  let before = autopilot_counts net in
  let next = faults s ~seed net in
  let sims = ref [] and oks = ref [] and i = ref 0 and work = ref 0. in
  for _ = 1 to reconfigs do
    let ev = next () in
    r.Layers.cause <- Printf.sprintf "reconfig:%d" !i;
    let loads0 = sum_stats net completed in
    let w0 = clock () in
    let m = Layers.measure r net ~trigger:(fun t -> N.apply_fault t ev) in
    work := !work +. (clock () -. w0);
    Option.iter
      (fun (m : N.reconfiguration_measure) ->
        sims := Time.to_float_ms m.reconfiguration :: !sims)
      m;
    oks := check_unit !i ev m net :: !oks;
    let configured = sum_stats net completed - loads0 in
    quietly pool (fun () ->
        Option.iter (Layers.replay r ~prev ~pool) (Layers.capture net ~configured));
    incr i
  done;
  add_counts r ~minus:before (autopilot_counts net);
  note_queue r net;
  note_pool r pool;
  Pool.set_metrics_enabled pool false;
  Layers.add r "sim.events" (float_of_int (Engine.events_executed (N.engine net)));
  { t_rec = r;
    t_spans = boot_r.Layers.spans;
    t_units = !i;
    t_work = !work;
    t_det =
      [ ("sim.events", string_of_int (Engine.events_executed (N.engine net)));
        ("fabric.packets",
         string_of_int (Fabric.stats (N.fabric net)).Fabric.packets_sent);
        ("sim_reconfig_ms", render_sims (List.rev !sims));
        ("verified", String.concat "," (List.rev_map string_of_bool !oks)) ] }

(* One schedule, stepped, with the figures its replay and the merged
   counters need; the network is dropped here. *)
let traced_schedule (cfg : Chaos.config) ~seed ~schedule ~cause =
  let r = Layers.create () in
  r.Layers.cause <- cause;
  let s0 = clock () in
  let net, violations =
    Layers.run_schedule r ~telemetry:`On cfg ~seed ~schedule
  in
  Layers.sample r "chaos.schedule" (clock () -. s0);
  add_counts r (autopilot_counts net);
  note_queue r net;
  let events = Engine.events_executed (N.engine net) in
  Layers.add r "sim.events" (float_of_int events);
  let epoch =
    Layers.capture net ~configured:(sum_stats net completed)
  in
  let signature =
    Fuzz.signature ~violations (N.telemetry_snapshot net)
      (Option.value ~default:(Timeline.create ()) (N.timeline net))
  in
  (r, violations, events, epoch, signature)

let merge_units rs =
  let total = Layers.create () in
  List.iter (Layers.merge_into total) rs;
  Hashtbl.replace total.Layers.sums "sim.max_queue"
    (List.fold_left (fun q r -> Float.max q (Layers.sum r "sim.max_queue")) 0. rs);
  total

let chaos_traced (cfg : Chaos.config) ~n ~seed =
  let pool = Pool.create ~domains:!domains () in
  Pool.set_metrics_enabled pool true;
  let cs = campaign_seed ~seed 0 in
  let t0 = clock () in
  let results =
    Pool.parallel_map_array pool
      (fun i ->
        let sseed = Chaos.schedule_seed ~seed:cs i in
        let schedule = Chaos.schedule_for cfg ~seed:sseed in
        let r, violations, events, epoch, _ =
          traced_schedule cfg ~seed:sseed ~schedule
            ~cause:(Printf.sprintf "schedule:%d" i)
        in
        let v =
          { Chaos.index = i; seed = sseed; events = List.length schedule;
            violations }
        in
        (r, v, events, epoch))
      (Array.init n Fun.id)
  in
  let work = clock () -. t0 in
  let default = Pool.default () in
  let rs =
    Array.to_list
      (Array.map
         (fun (r, _, _, epoch) ->
           Option.iter (Layers.replay r ~prev:(Layers.committed ()) ~pool:default) epoch;
           r)
         results)
  in
  let total = merge_units rs in
  note_pool total pool;
  Pool.shutdown pool;
  let verdicts = Array.to_list (Array.map (fun (_, v, _, _) -> v) results) in
  { t_rec = total;
    t_spans = [];
    t_units = n;
    t_work = work;
    t_det =
      [ ("sim.events", Printf.sprintf "%.0f" (Layers.sum total "sim.events"));
        ("fabric.packets", Printf.sprintf "%.0f" (Layers.sum total "fabric.packets"));
        ("verdicts", String.concat "\n" (verdict_lines verdicts)) ] }

(* The fuzz loop is opaque from outside, so the traced leg re-runs it
   with pool metrics on (the deterministic result must not move), then
   re-executes each corpus entry twice: through [Fuzz.execute] for its
   wall time, and stepped for the layer breakdown.  The stepped run must
   reproduce the entry's coverage signature exactly. *)
let fuzz_traced (cfg : Fuzz.config) ~seed =
  let pool = Pool.create ~domains:!domains () in
  Pool.set_metrics_enabled pool true;
  let t0 = clock () in
  let res = Fuzz.run ~pool cfg ~seed:(campaign_seed ~seed 0) in
  let work = clock () -. t0 in
  let default = Pool.default () in
  let rs =
    List.mapi
      (fun i (e : Fuzz.entry) ->
        let cause = Printf.sprintf "exec:%d" i in
        let t0 = clock () in
        let again = Fuzz.execute cfg.chaos ~seed:e.e_seed ~schedule:e.e_schedule in
        let d = clock () -. t0 in
        let r, _, _, epoch, signature =
          traced_schedule cfg.chaos ~seed:e.e_seed ~schedule:e.e_schedule ~cause
        in
        Layers.sample r "fuzz.execute" d;
        Layers.span r "fuzz" "execute" t0 (t0 +. d);
        List.iter
          (fun (what, s) ->
            if s <> e.e_signature then
              mismatch
                (Printf.sprintf "corpus entry %d signature (%s)" i what)
                ~measured:s ~expected:e.e_signature)
          [ ("Fuzz.execute", again.e_signature); ("stepped", signature) ];
        Option.iter (Layers.replay r ~prev:(Layers.committed ()) ~pool:default) epoch;
        r)
      res.r_corpus
  in
  let total = merge_units rs in
  note_pool total pool;
  Pool.shutdown pool;
  Layers.add total "fuzz.executed" (float_of_int res.r_executed);
  Layers.add total "fuzz.distinct" (float_of_int res.r_distinct);
  { t_rec = total;
    t_spans = [];
    t_units = List.length rs;
    t_work = work;
    t_det = fuzz_det res }

let traced w ~seed =
  match w.kind with
  | Single s -> single_traced s ~seed ~reconfigs:w.trace_rounds
  | Campaign (cfg, n) -> chaos_traced cfg ~n ~seed
  | Fuzzing cfg -> fuzz_traced cfg ~seed

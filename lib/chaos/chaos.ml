open Autonet_topo
module N = Autonet.Network
module Params = Autonet_autopilot.Params
module Pool = Autonet_parallel.Pool
module Rng = Autonet_sim.Rng
module Time = Autonet_sim.Time
module B = Builders
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline
module Causal = Autonet_telemetry.Causal

type config = {
  topo : string;
  params : Params.t;
  hosts : int;
  actions : int;
  horizon : Time.t;
  timeout : Time.t;
}

let default_config =
  { topo = "src";
    params = Params.fast;
    hosts = 0;
    actions = 12;
    horizon = Time.s 2;
    timeout = Time.s 120 }

let build_topo = B.of_spec

(* splitmix64: neighbouring campaign indices must yield uncorrelated
   schedule seeds, and the mapping must be pure so schedule [i] can be
   replayed without running schedules [0 .. i-1]. *)
let schedule_seed ~seed i =
  let open Int64 in
  let z = add seed (mul (of_int (i + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let schedule_for config ~seed =
  let topo = B.of_spec config.topo ~seed ~hosts:config.hosts in
  Faults.random ~rng:(Rng.create ~seed) ~graph:topo.B.graph
    ~horizon:config.horizon ~events:config.actions

type hook = N.t -> Oracle.violation list

let run_schedule ?hook ?(telemetry = `Disabled) config ~seed ~schedule =
  let topo = B.of_spec config.topo ~seed ~hosts:config.hosts in
  let net = N.create ~params:config.params ~seed ~telemetry topo in
  N.start net;
  N.schedule_faults net schedule;
  (* Faults start landing at t=0, squarely inside the boot-time
     reconfigurations; run just past the last one, then wait for
     quiescence. *)
  let last =
    List.fold_left
      (fun acc (it : Faults.item) -> Time.max acc it.at)
      Time.zero schedule
  in
  N.run_for net (Time.add last (Time.ms 1));
  (* A check that *raises* (an oracle bug, or a hook written as an
     assertion) must still yield a verdict: converting the exception into
     a violation keeps the campaign running and — crucially — keeps the
     network value alive, so the failure artifact still carries its
     telemetry snapshot and timeline instead of losing both to the
     unwind. *)
  let guarded f =
    match f () with
    | vs -> vs
    | exception e -> [ Oracle.Check_raised (Printexc.to_string e) ]
  in
  let violations =
    match N.run_until_converged ~timeout:config.timeout net with
    | None -> [ Oracle.Not_converged ]
    | Some _ -> guarded (fun () -> Oracle.check net)
  in
  let violations =
    match hook with
    | None -> violations
    | Some h -> violations @ guarded (fun () -> h net)
  in
  (net, violations)

(* --- Campaigns --- *)

type verdict = {
  index : int;
  seed : int64;
  events : int;
  violations : Oracle.violation list;
}

let passed v = v.violations = []

let pp_verdict ppf v =
  if passed v then
    Format.fprintf ppf "#%04d seed=0x%016Lx events=%02d PASS" v.index v.seed
      v.events
  else
    Format.fprintf ppf "#%04d seed=0x%016Lx events=%02d FAIL [%s]" v.index
      v.seed v.events
      (String.concat ","
         (List.sort_uniq compare (List.map Oracle.label v.violations)))

let run_index ?hook config ~seed i =
  let sseed = schedule_seed ~seed i in
  let schedule = schedule_for config ~seed:sseed in
  let _net, violations = run_schedule ?hook config ~seed:sseed ~schedule in
  { index = i; seed = sseed; events = List.length schedule; violations }

let run_campaign ?pool ?hook config ~seed ~schedules =
  if schedules < 1 then invalid_arg "run_campaign: schedules must be >= 1";
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Pool.parallel_map_array pool
    (fun i -> run_index ?hook config ~seed i)
    (Array.init schedules Fun.id)

(* --- Failure investigation --- *)

let labels vs = List.sort_uniq compare (List.map Oracle.label vs)

(* The most re-runs one shrink may spend. *)
let shrink_budget = 128

let shrink ?hook config ~seed ~schedule =
  let _, vs0 = run_schedule ?hook config ~seed ~schedule in
  let target = labels vs0 in
  if target = [] then schedule
  else begin
    let runs = ref 0 in
    let still_fails cand =
      !runs < shrink_budget
      && begin
           incr runs;
           let _, vs = run_schedule ?hook config ~seed ~schedule:cand in
           let ls = labels vs in
           List.for_all (fun l -> List.mem l ls) target
         end
    in
    (* Greedy ddmin-lite: drop one item at a time, restarting the scan
       after each successful drop so later items get retried against the
       smaller schedule. *)
    let rec pass sched =
      let n = List.length sched in
      let rec try_drop i =
        if i >= n then sched
        else
          let cand = List.filteri (fun j _ -> j <> i) sched in
          if cand <> [] && still_fails cand then pass cand
          else try_drop (i + 1)
      in
      try_drop 0
    in
    pass schedule
  end

type artifact = {
  a_config : config;
  a_index : int;
  a_seed : int64;
  a_schedule : Faults.schedule;
  a_violations : Oracle.violation list;
  a_shrunk : Faults.schedule;
  a_shrunk_violations : Oracle.violation list;
  a_log : (Time.t * string * string) list;
  a_metrics : Metrics.snapshot;
  a_timeline : Timeline.t;
  a_recorders : (int * Causal.recorder_entry list) list;
}

let investigate ?hook ?(log_tail = 200) config ~seed ~index =
  let sseed = schedule_seed ~seed index in
  let schedule = schedule_for config ~seed:sseed in
  let _, violations = run_schedule ?hook config ~seed:sseed ~schedule in
  let shrunk =
    if violations = [] then schedule
    else shrink ?hook config ~seed:sseed ~schedule
  in
  (* The final replay carries full telemetry: the reproducer packages the
     metric snapshot and the phase timeline alongside the merged log, and
     the CLI can export the timeline as a Chrome trace. *)
  let net, shrunk_violations =
    run_schedule ?hook ~telemetry:`On config ~seed:sseed ~schedule:shrunk
  in
  let log =
    let l = N.merged_log net in
    let extra = List.length l - log_tail in
    if extra > 0 then List.filteri (fun i _ -> i >= extra) l else l
  in
  { a_config = config;
    a_index = index;
    a_seed = sseed;
    a_schedule = schedule;
    a_violations = violations;
    a_shrunk = shrunk;
    a_shrunk_violations = shrunk_violations;
    a_log = log;
    a_metrics = N.telemetry_snapshot net;
    a_timeline =
      (match N.timeline net with
      | Some tl -> tl
      | None -> Timeline.create ());
    a_recorders = N.recorders net }

let pp_artifact ppf a =
  Format.fprintf ppf "@[<v>reproducer: topo=%s seed=0x%016Lx (campaign index %d)@,"
    a.a_config.topo a.a_seed a.a_index;
  Format.fprintf ppf "schedule (%d items):@,  @[<v>%a@]@,"
    (List.length a.a_schedule) Faults.pp a.a_schedule;
  Format.fprintf ppf "violations:@,  @[<v>%a@]@,"
    (Format.pp_print_list Oracle.pp_violation)
    a.a_violations;
  if a.a_shrunk != a.a_schedule then begin
    Format.fprintf ppf "shrunk schedule (%d items):@,  @[<v>%a@]@,"
      (List.length a.a_shrunk) Faults.pp a.a_shrunk;
    Format.fprintf ppf "shrunk violations:@,  @[<v>%a@]@,"
      (Format.pp_print_list Oracle.pp_violation)
      a.a_shrunk_violations
  end;
  Format.fprintf ppf "merged event log (last %d entries):@,  @[<v>%a@]@,"
    (List.length a.a_log)
    (Format.pp_print_list (fun ppf (ts, who, msg) ->
         Format.fprintf ppf "%a %s: %s" Time.pp ts who msg))
    a.a_log;
  (* Flight recorders are the post-mortem view: dump them only when the
     shrunk replay still violates the oracle. *)
  if a.a_shrunk_violations <> [] then
    List.iter
      (fun (sw, entries) ->
        Format.fprintf ppf "flight recorder s%d (last %d events):@,  @[<v>%a@]@,"
          sw (List.length entries)
          (Format.pp_print_list (fun ppf e ->
               Format.fprintf ppf "%a e%Ld %s" Time.pp e.Causal.fr_time
                 e.Causal.fr_epoch e.Causal.fr_msg))
          entries)
      a.a_recorders;
  let metric_lines =
    String.split_on_char '\n' (String.trim (Metrics.render a.a_metrics))
  in
  Format.fprintf ppf "telemetry snapshot:@,  @[<v>%a@]@]"
    (Format.pp_print_list Format.pp_print_string)
    metric_lines

(* autonet-sim: run a whole simulated Autonet from the command line — boot
   it, optionally inject faults on a schedule, and report convergence,
   reconfiguration measurements and (optionally) the merged event log or
   an SRP probe of a switch.

     dune exec bin/autonet_sim.exe -- boot --topo torus:3,3
     dune exec bin/autonet_sim.exe -- fail-link --topo src --params naive
     dune exec bin/autonet_sim.exe -- crash --topo src --switch 7 --log
     dune exec bin/autonet_sim.exe -- srp --topo torus:3,3 --route 1,2 *)

open Autonet_core
module B = Autonet_topo.Builders
module N = Autonet.Network
module F = Autonet_topo.Faults
module AP = Autonet_autopilot.Autopilot
module Messages = Autonet_autopilot.Messages
module Fabric = Autonet_autopilot.Fabric
module Params = Autonet_autopilot.Params
module Time = Autonet_sim.Time
module Chaos = Autonet_chaos.Chaos
module Fuzz = Autonet_chaos.Fuzz
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline
module Causal = Autonet_telemetry.Causal
module Json = Autonet_telemetry.Json
module Report = Autonet_analysis.Report
open Cmdliner

(* --params names a preset; the converter admits only those names. *)
let params_conv =
  Arg.enum (List.map (fun n -> (n, n)) [ "naive"; "tuned"; "fast" ])

let preset name = Option.get (Params.preset name)

let topology spec seed hosts = B.of_spec spec ~seed:(Int64.of_int seed) ~hosts

let make_net topo seed params_name =
  let net =
    N.create ~params:(preset params_name) ~seed:(Int64.of_int seed) topo
  in
  N.start net;
  net

(* Link indices wrap around the topology's link list, which must not be
   empty; like {!Topo_spec.check_switch}, a usage error otherwise. *)
let check_links (topo : B.t) k =
  if Graph.link_count topo.graph > 0 then k ()
  else `Error (true, "the topology has no links to fail")

let nth_link net n =
  let links = Graph.links (N.graph net) in
  (List.nth links (n mod List.length links)).Graph.id

let boot_and_report net =
  match N.run_until_converged ~timeout:(Time.s 300) net with
  | Some at ->
    Format.printf "converged at %a; reference check %b@." Time.pp at
      (N.verify_against_reference net);
    true
  | None ->
    Format.printf "DID NOT CONVERGE within 300 simulated seconds@.";
    false

let print_log net t0 =
  Format.printf "@.merged event log:@.";
  List.iter
    (fun (ts, who, msg) ->
      if ts >= t0 then
        Format.printf "  [+%a] %s: %s@." Time.pp (Time.sub ts t0) who msg)
    (N.merged_log net)

(* The commands below exit 1 once they have reported a boot or a
   reconfiguration that did not converge. *)
let boot_or_exit net = if not (boot_and_report net) then exit 1

let cmd_boot spec seed hosts params_name show_log =
  let net = make_net (topology spec seed hosts) seed params_name in
  let converged = boot_and_report net in
  if show_log then print_log net Time.zero;
  if not converged then exit 1

let measure net trigger show_log =
  let t0 = N.now net in
  let m = N.measure_reconfiguration ~timeout:(Time.s 300) net ~trigger in
  (match m with
  | Some m -> Format.printf "%a@." N.pp_measure m
  | None -> Format.printf "did not reconverge@.");
  Format.printf "reference check: %b@." (N.verify_against_reference net);
  if show_log then print_log net t0;
  if Option.is_none m then exit 1

let cmd_fail_link spec seed hosts params_name link show_log =
  let topo = topology spec seed hosts in
  check_links topo (fun () ->
      let net = make_net topo seed params_name in
      boot_or_exit net;
      let l = nth_link net link in
      Format.printf "failing link %d...@." l;
      `Ok (measure net (fun net -> N.apply_fault net (F.Link_down l)) show_log))

let cmd_crash spec seed hosts params_name switch show_log =
  let topo = topology spec seed hosts in
  Topo_spec.check_switch topo ~what:"--switch" switch (fun () ->
      let net = make_net topo seed params_name in
      boot_or_exit net;
      Format.printf "powering off switch %d...@." switch;
      `Ok
        (measure net
           (fun net -> N.apply_fault net (F.Switch_down switch))
           show_log))

(* A source route is walked on the built topology before anything boots.
   A port above [max_ports] is a usage error; otherwise [k] gets where
   the route ends: [Ok s] at switch [s], or [Error (s, p)] when port [p]
   of switch [s] leads to no switch (uncabled, a host, or port 0, the
   control processor). *)
let check_route (topo : B.t) ports k =
  let g = topo.graph in
  match List.find_opt (fun p -> p > Graph.max_ports g) ports with
  | Some p ->
    `Error
      ( true,
        Printf.sprintf "--route port %d: expected a port in 0..%d" p
          (Graph.max_ports g) )
  | None ->
    let rec walk s = function
      | [] -> Ok s
      | p :: rest -> (
        match Option.bind (Graph.link_at g (s, p)) (Graph.link g) with
        | Some l -> walk (fst (Graph.other_end l s)) rest
        | None -> Error (s, p))
    in
    k (walk 0 ports)

let cmd_srp spec seed hosts params_name ports =
  (* Source-routed probe: inject an SRP Get_state at switch 0's control
     processor and print the reply fetched over the given port route. *)
  let topo = topology spec seed hosts in
  check_route topo ports (fun ends ->
      let net = make_net topo seed params_name in
      boot_or_exit net;
      (match ports with
      | [] -> Format.printf "empty route: probing switch 0 itself@."
      | first :: rest ->
        Format.printf "probing via ports [%s] starting out port %d@."
          (String.concat "," (List.map string_of_int ports))
          first;
        Fabric.switch_send (N.fabric net) ~from:0 ~port:first
          (Messages.to_packet
             (Messages.Srp_request
                { route = rest; reply_route = []; request = Messages.Get_state })));
      N.run_for net (Time.ms 100);
      (* The response terminated at switch 0's control processor; its event
         log records it. *)
      let log = AP.event_log (N.autopilot net 0) in
      List.iter
        (fun e ->
          Format.printf "  s0 log: %s@." (Autonet_autopilot.Event_log.message e))
        (let es = Autonet_autopilot.Event_log.entries log in
         let n = List.length es in
         List.filteri (fun i _ -> i >= n - 5) es);
      match ends with
      | Ok target ->
        (* Also print the state of the probed switch directly. *)
        let ap = N.autopilot net target in
        Format.printf "switch %d: %a, configured %b, number %d@." target
          Epoch.pp (AP.epoch ap) (AP.configured ap)
          (Option.value ~default:(-1) (AP.switch_number ap));
        `Ok ()
      | Error (s, p) ->
        Format.printf
          "no switch answers: the route leaves the switch graph at switch %d \
           port %d@."
          s p;
        exit 1)

(* --- Telemetry --- *)

(* Deterministic span clock: one microsecond per call.  Compute spans
   measured on it are byte-identical across runs and domain counts, so
   the telemetry and trace smoke rules can cmp full stdout without
   pinning AUTONET_DELTA=0. *)
let tick_clock () =
  let c = ref 0 in
  fun () ->
    incr c;
    float_of_int !c *. 1e-6

let write_json path json =
  let s = Json.to_string json in
  if path = "-" then print_endline s
  else begin
    let oc = open_out path in
    output_string oc s;
    output_char oc '\n';
    close_out oc;
    (* stderr: stdout must stay byte-comparable across domain counts even
       when the trace file name encodes the domain count. *)
    Format.eprintf "wrote %s@." path
  end

(* The --fault trigger: none | link:N | switch:N. *)
type fault = No_fault | Link_fault of int | Switch_fault of int

let pp_fault ppf = function
  | No_fault -> Format.pp_print_string ppf "none"
  | Link_fault n -> Format.fprintf ppf "link:%d" n
  | Switch_fault n -> Format.fprintf ppf "switch:%d" n

let fault_conv =
  let index n =
    match int_of_string_opt n with Some i when i >= 0 -> Some i | _ -> None
  in
  let parse spec =
    Option.to_result
      ~none:(`Msg (spec ^ ": expected none | link:N | switch:N, N >= 0"))
      (match String.split_on_char ':' spec with
      | [ "none" ] -> Some No_fault
      | [ "link"; n ] -> Option.map (fun i -> Link_fault i) (index n)
      | [ "switch"; n ] -> Option.map (fun i -> Switch_fault i) (index n)
      | _ -> None)
  in
  Arg.conv (parse, pp_fault)

let check_fault topo fault k =
  match fault with
  | No_fault -> k ()
  | Link_fault _ -> check_links topo k
  | Switch_fault s -> Topo_spec.check_switch topo ~what:"switch" s k

(* Boot with telemetry on and the tick span clock, trigger [fault] and
   measure the reconfiguration; exits 1 if either does not converge. *)
let traced_run topo seed params_name fault =
  let net =
    N.create ~params:(preset params_name) ~seed:(Int64.of_int seed)
      ~telemetry:`On ~span_clock:(tick_clock ()) topo
  in
  N.start net;
  boot_or_exit net;
  (match
     match fault with
     | No_fault -> None
     | Link_fault n -> Some (F.Link_down (nth_link net n))
     | Switch_fault s -> Some (F.Switch_down s)
   with
  | None -> ()
  | Some ev ->
    Format.printf "triggering %a...@." pp_fault fault;
    (match
       N.measure_reconfiguration ~timeout:(Time.s 300) net
         ~trigger:(fun net -> N.apply_fault net ev)
     with
    | Some m -> Format.printf "%a@." N.pp_measure m
    | None ->
      Format.printf "did not reconverge@.";
      exit 1));
  (net, Option.get (N.timeline net))

(* Check [fault] against the topology before anything boots, then run
   [k] on the traced network. *)
let with_traced_run spec seed hosts params_name fault k =
  let topo = topology spec seed hosts in
  check_fault topo fault (fun () ->
      `Ok (k (traced_run topo seed params_name fault)))

let cmd_telemetry spec seed hosts params_name fault show_metrics json spans
    check =
  with_traced_run spec seed hosts params_name fault @@ fun (net, tl) ->
  Report.print (Timeline.phase_report tl);
  if Timeline.spans tl <> [] then Report.print (Timeline.span_report tl);
  if show_metrics then print_string (Metrics.render (N.telemetry_snapshot net));
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("metrics", Metrics.to_json (N.telemetry_snapshot net));
              ("trace", Timeline.to_trace_json tl) ]));
  Option.iter (fun path -> write_json path (Timeline.to_trace_json tl)) spans;
  if check then begin
    (* The smoke contract: what we emit must re-parse, and the phase spans
       must nest inside their epoch and sum to its duration. *)
    let fail msg =
      Format.printf "telemetry check: %s@." msg;
      exit 1
    in
    (match Json.parse (Json.to_string (Timeline.to_trace_json tl)) with
    | Error e -> fail ("trace JSON does not parse: " ^ e)
    | Ok j -> (
      match Timeline.validate_trace j with
      | Error e -> fail e
      | Ok () -> ()));
    (match
       Json.parse (Json.to_string (Metrics.to_json (N.telemetry_snapshot net)))
     with
    | Error e -> fail ("metrics JSON does not parse: " ^ e)
    | Ok _ -> ());
    let complete =
      List.length
        (List.filter
           (fun e -> e.Timeline.es_complete)
           (Timeline.epochs tl))
    in
    if complete = 0 then fail "no complete epoch in the timeline";
    Format.printf "telemetry check: ok (%d complete epochs)@." complete
  end

(* --- Causal tracing --- *)

let cmd_trace spec seed hosts params_name fault json spans check =
  with_traced_run spec seed hosts params_name fault @@ fun (net, tl) ->
  let causal_json () = Causal.to_json ~recorders:(N.recorders net) tl in
  if json then print_endline (Json.to_string (causal_json ()))
  else
    List.iter
      (fun w -> Format.printf "%a@." Causal.pp_wave w)
      (Causal.waves tl);
  Option.iter (fun path -> write_json path (Causal.to_trace_json tl)) spans;
  if check then begin
    (* The smoke contract: what we emit must re-parse, and the last
       healed wave must be a complete, well-formed propagation forest —
       every configured switch exactly once, every join via a valid
       parent hop. *)
    let fail msg =
      Format.printf "trace check: %s@." msg;
      exit 1
    in
    (match Json.parse (Json.to_string (causal_json ())) with
    | Error e -> fail ("causal JSON does not parse: " ^ e)
    | Ok _ -> ());
    match Causal.last_complete tl with
    | None -> fail "no complete wave"
    | Some w ->
      (match Causal.validate_wave w with
      | Error e -> fail e
      | Ok () -> ());
      let configured =
        List.filter
          (fun s -> AP.configured (N.autopilot net s))
          (Graph.switches (N.graph net))
      in
      (* w_nodes carries one entry per switch, ascending — so a plain
         list compare is the exactly-once check. *)
      let in_wave = List.map (fun n -> n.Causal.n_switch) w.Causal.w_nodes in
      if in_wave <> configured then
        fail
          (Printf.sprintf "wave covers %d switch(es), %d configured"
             (List.length in_wave) (List.length configured));
      Format.printf "trace check: ok (epoch %Ld, %d switches, depth %d)@."
        w.Causal.w_epoch (List.length in_wave) w.Causal.w_depth
  end

(* --- Chaos campaigns --- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let print_fuzz_corpus entries =
  List.iteri
    (fun i (e : Fuzz.entry) ->
      Format.printf "corpus %04d seed=0x%016Lx items=%02d viol=%s@." i
        e.Fuzz.e_seed
        (List.length e.Fuzz.e_schedule)
        (match e.Fuzz.e_violations with
        | [] -> "-"
        | vs -> String.concat "," vs))
    entries

(* One coverage-guided (or, with [blind], blind-sampling) fuzz run in this
   process; the per-entry corpus listing and the optional corpus file are
   both deterministic in the seed, whatever AUTONET_DOMAINS says.  A run
   with failures shrinks the first, prints it to stderr as a seed file
   (the format test/seeds/ replays) and exits 1. *)
let fuzz_here config ~params_name ~budget ~blind ~seed ~corpus_out =
  let fcfg = { (Fuzz.default config) with Fuzz.budget; guided = not blind } in
  let r = Fuzz.run fcfg ~seed in
  Format.printf "fuzz: executed=%d distinct=%d cells=%d signatures=%d failures=%d@."
    r.Fuzz.r_executed r.Fuzz.r_distinct r.Fuzz.r_cells r.Fuzz.r_signatures
    (List.length r.Fuzz.r_failures);
  print_fuzz_corpus r.Fuzz.r_corpus;
  (match corpus_out with
  | None -> ()
  | Some path -> write_file path (Fuzz.corpus_to_string r.Fuzz.r_corpus));
  match r.Fuzz.r_failures with
  | [] -> ()
  | e :: _ ->
    let shrunk =
      Chaos.shrink config ~seed:e.Fuzz.e_seed ~schedule:e.Fuzz.e_schedule
    in
    Format.eprintf
      "fuzz: %d failing execution(s); the first (%s), shrunk:@.%s@."
      (List.length r.Fuzz.r_failures)
      (String.concat "," e.Fuzz.e_violations)
      (Fuzz.seed_file_to_string
         { Fuzz.sf_topo = config.Chaos.topo;
           sf_params = params_name;
           sf_hosts = config.Chaos.hosts;
           sf_seed = e.Fuzz.e_seed;
           sf_schedule = shrunk });
    exit 1

(* Multi-process sharding: re-exec this binary once per shard with a
   derived seed and a per-shard slice of the budget, then merge the shard
   corpora first-wins in shard order — so the merged corpus is as
   deterministic as a single-process run.  Shard stdout goes to
   FILE.shardN.out; the parent prints only the merged summary. *)
let fuzz_sharded ~topo ~params_name ~hosts ~actions ~horizon_ms ~budget ~blind
    ~seed ~shards ~corpus_out =
  let base = match corpus_out with Some p -> p | None -> "fuzz-corpus" in
  let shard_files = List.init shards (fun i -> Printf.sprintf "%s.shard%d" base i) in
  let per = budget / shards and extra = budget mod shards in
  let pids =
    List.mapi
      (fun i file ->
        let shard_seed =
          (* Mask to 62 bits so the child's int --seed stays positive. *)
          Int64.to_int
            (Int64.logand
               (Chaos.schedule_seed ~seed:(Int64.of_int seed) (1 + i))
               0x3FFF_FFFF_FFFF_FFFFL)
        in
        let shard_budget = per + if i < extra then 1 else 0 in
        let args =
          [ Sys.executable_name; "chaos"; "--topo"; topo; "--params";
            params_name; "--hosts"; string_of_int hosts; "--actions";
            string_of_int actions; "--horizon-ms"; string_of_int horizon_ms;
            "--fuzz"; string_of_int shard_budget; "--seed";
            string_of_int shard_seed; "--corpus-out"; file ]
          @ if blind then [ "--blind" ] else []
        in
        let out =
          Unix.openfile (file ^ ".out")
            [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
            0o644
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args)
            Unix.stdin out Unix.stderr
        in
        Unix.close out;
        pid)
      shard_files
  in
  List.iteri
    (fun i pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ ->
        Format.eprintf "fuzz: shard %d failed (see %s.shard%d.out)@." i base i;
        exit 1)
    pids;
  let corpora =
    List.map
      (fun file ->
        match Fuzz.corpus_of_string (read_file file) with
        | Ok c -> c
        | Error e ->
          Format.eprintf "fuzz: %s: %s@." file e;
          exit 1)
      shard_files
  in
  List.iteri
    (fun i c -> Format.printf "shard %d: distinct=%d@." i (List.length c))
    corpora;
  let merged = Fuzz.merge_corpora corpora in
  Format.printf "fuzz: shards=%d budget=%d merged distinct=%d failures=%d@."
    shards budget (List.length merged)
    (List.length (List.filter (fun e -> e.Fuzz.e_violations <> []) merged));
  print_fuzz_corpus merged;
  match corpus_out with
  | None -> ()
  | Some path -> write_file path (Fuzz.corpus_to_string merged)

let cmd_chaos topos schedules seed hosts params_name actions horizon_ms replay
    spans fuzz blind shards corpus_out churn =
  let params = preset params_name in
  let topos = if topos = [] then [ "src" ] else topos in
  let config topo =
    { Chaos.topo;
      params;
      hosts;
      actions;
      horizon = Time.ms horizon_ms;
      timeout = Time.s 120 }
  in
  let seed64 = Int64.of_int seed in
  match (fuzz, churn) with
  | Some budget, _ ->
    let topo = List.hd topos in
    if shards <= 1 then
      fuzz_here (config topo) ~params_name ~budget ~blind ~seed:seed64
        ~corpus_out
    else
      fuzz_sharded ~topo ~params_name ~hosts ~actions ~horizon_ms ~budget
        ~blind ~seed ~shards ~corpus_out
  | None, Some cycles ->
    let topo = List.hd topos in
    let report = Fuzz.churn (config topo) ~seed:seed64 ~cycles in
    Format.printf "%a@." Fuzz.pp_churn_report report;
    if report.Fuzz.ch_not_converged > 0 || report.Fuzz.ch_oracle_violations <> []
    then exit 1
  | None, None -> (
  match replay with
  | Some index ->
    (* Replay one schedule of the campaign (under the first --topo) and
       print the full reproducer artifact, pass or fail. *)
    let topo = List.hd topos in
    let art = Chaos.investigate (config topo) ~seed:seed64 ~index in
    Format.printf "%a@." Chaos.pp_artifact art;
    Option.iter
      (fun path ->
        write_json path (Timeline.to_trace_json art.Chaos.a_timeline))
      spans;
    if art.Chaos.a_violations <> [] then exit 1
  | None ->
    let failures = ref [] in
    List.iter
      (fun topo ->
        Format.printf "== chaos topo=%s params=%s seed=%d schedules=%d actions=%d ==@."
          topo params_name seed schedules actions;
        let verdicts = Chaos.run_campaign (config topo) ~seed:seed64 ~schedules in
        Array.iter (fun v -> Format.printf "%a@." Chaos.pp_verdict v) verdicts;
        let ok =
          Array.fold_left
            (fun n v -> if Chaos.passed v then n + 1 else n)
            0 verdicts
        in
        Format.printf "== %d/%d passed ==@." ok (Array.length verdicts);
        Array.iter
          (fun v -> if not (Chaos.passed v) then failures := (topo, v) :: !failures)
          verdicts)
      topos;
    (match List.rev !failures with
    | [] -> ()
    | (topo, v) :: _ ->
      (* The artifact goes to stderr so stdout stays byte-comparable
         across domain counts even on a failing campaign. *)
      Format.eprintf
        "chaos: %d failing schedule(s); investigating the first (topo=%s index=%d)@."
        (List.length !failures) topo v.Chaos.index;
      let art = Chaos.investigate (config topo) ~seed:seed64 ~index:v.Chaos.index in
      Format.eprintf "%a@." Chaos.pp_artifact art;
      Format.eprintf "replay: autonet-sim chaos --topo %s --seed %d --replay %d@."
        topo seed v.Chaos.index;
      exit 1))

(* --- Cmdliner --- *)

let topo_arg =
  Arg.(
    value & opt Topo_spec.conv "torus:3,3"
    & info [ "topo"; "t" ] ~docv:"SPEC"
        ~doc:("Topology: " ^ B.spec_grammar ^ "."))

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let hosts_arg =
  Arg.(value & opt int 2 & info [ "hosts" ] ~doc:"Host ports per switch.")

let params_arg =
  Arg.(
    value & opt params_conv "tuned"
    & info [ "params"; "p" ] ~doc:"Autopilot preset: naive | tuned | fast.")

let fault_arg =
  Arg.(
    value & opt fault_conv (Link_fault 0)
    & info [ "fault" ] ~docv:"FAULT"
        ~doc:"Reconfiguration trigger after boot: none | link:N | switch:N.")

let log_arg =
  Arg.(value & flag & info [ "log" ] ~doc:"Print the merged event log.")

let () =
  let info =
    Cmd.info "autonet-sim" ~doc:"Run simulated Autonets from the command line."
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ Cmd.v (Cmd.info "boot" ~doc:"Boot a network to convergence.")
              Term.(
                const cmd_boot $ topo_arg $ seed_arg $ hosts_arg $ params_arg
                $ log_arg);
            Cmd.v
              (Cmd.info "fail-link"
                 ~doc:"Boot, fail a link, measure the reconfiguration.")
              Term.(
                ret
                  (const cmd_fail_link $ topo_arg $ seed_arg $ hosts_arg
                  $ params_arg
                  $ Arg.(
                      value
                      & opt (Topo_spec.at_least 0) 0
                      & info [ "link" ] ~doc:"Link index.")
                  $ log_arg));
            Cmd.v
              (Cmd.info "crash"
                 ~doc:"Boot, power a switch off, measure the reconfiguration.")
              Term.(
                ret
                  (const cmd_crash $ topo_arg $ seed_arg $ hosts_arg
                  $ params_arg
                  $ Arg.(
                      value
                      & opt (Topo_spec.at_least 0) 0
                      & info [ "switch" ] ~doc:"Switch index.")
                  $ log_arg));
            Cmd.v
              (Cmd.info "srp"
                 ~doc:
                   "Probe a switch over the source-routed debugging protocol.")
              Term.(
                ret
                  (const cmd_srp $ topo_arg $ seed_arg $ hosts_arg $ params_arg
                  $ Arg.(
                      value
                      & opt (list (Topo_spec.at_least 0)) []
                      & info [ "route" ] ~docv:"P1,P2,..."
                          ~doc:"Outbound port at each hop, from switch 0.")));
            Cmd.v
              (Cmd.info "chaos"
                 ~doc:
                   "Run a randomized fault campaign: seeded schedules of \
                    link flaps, crashes, reboots and partitions, each \
                    checked against the network-wide invariant oracle.")
              Term.(
                const cmd_chaos
                $ Arg.(
                    value & opt_all Topo_spec.conv []
                    & info [ "topo"; "t" ] ~docv:"SPEC"
                        ~doc:
                          ("Topology (repeatable): " ^ B.spec_grammar
                         ^ ".  Default src."))
                $ Arg.(
                    value & opt (Topo_spec.at_least 1) 50
                    & info [ "schedules" ] ~doc:"Schedules per topology.")
                $ seed_arg
                $ Arg.(
                    value & opt int 0
                    & info [ "hosts" ] ~doc:"Host ports per switch.")
                $ Arg.(
                    value & opt params_conv "fast"
                    & info [ "params"; "p" ]
                        ~doc:"Autopilot preset: naive | tuned | fast.")
                $ Arg.(
                    value & opt (Topo_spec.at_least 1) 12
                    & info [ "actions" ] ~doc:"Fault actions per schedule.")
                $ Arg.(
                    value & opt (Topo_spec.at_least 1) 2000
                    & info [ "horizon-ms" ]
                        ~doc:"Faults land in [0, HORIZON) milliseconds.")
                $ Arg.(
                    value
                    & opt (some (Topo_spec.at_least 0)) None
                    & info [ "replay" ] ~docv:"INDEX"
                        ~doc:
                          "Replay one schedule of the campaign (first \
                           --topo), shrink any failure and print the \
                           reproducer artifact.")
                $ Arg.(
                    value & opt (some string) None
                    & info [ "spans" ] ~docv:"FILE"
                        ~doc:
                          "With --replay: write the replay's \
                           reconfiguration phase timeline as Chrome \
                           trace_event JSON to FILE (- for stdout).")
                $ Arg.(
                    value
                    & opt (some (Topo_spec.at_least 1)) None
                    & info [ "fuzz" ] ~docv:"BUDGET"
                        ~doc:
                          "Coverage-guided fuzzing instead of a fixed \
                           campaign: execute BUDGET schedules (first \
                           --topo), keeping and mutating the \
                           signature-novel ones.")
                $ Arg.(
                    value & flag
                    & info [ "blind" ]
                        ~doc:
                          "With --fuzz: disable coverage guidance and \
                           sample every schedule blindly (the baseline \
                           the e19 experiment compares against).")
                $ Arg.(
                    value & opt int 1
                    & info [ "shards" ] ~docv:"N"
                        ~doc:
                          "With --fuzz: split the budget across N child \
                           processes with derived seeds and merge their \
                           corpora first-wins in shard order.")
                $ Arg.(
                    value & opt (some string) None
                    & info [ "corpus-out" ] ~docv:"FILE"
                        ~doc:
                          "With --fuzz: write the final corpus to FILE \
                           (shards write FILE.shardN).")
                $ Arg.(
                    value
                    & opt (some (Topo_spec.at_least 1)) None
                    & info [ "churn" ] ~docv:"CYCLES"
                        ~doc:
                          "Long-horizon churn campaign instead of a \
                           fixed campaign: converge one network (first \
                           --topo), then run CYCLES fault/heal cycles \
                           with periodic oracle audits and report \
                           degradation metrics."));
            Cmd.v
              (Cmd.info "telemetry"
                 ~doc:
                   "Boot a network with telemetry on, trigger one \
                    reconfiguration, and report the metric snapshot and \
                    the per-epoch phase timeline.")
              Term.(
                ret
                  (const cmd_telemetry $ topo_arg $ seed_arg $ hosts_arg
                  $ params_arg
                  $ fault_arg
                  $ Arg.(
                      value & flag
                      & info [ "metrics" ]
                          ~doc:"Print the metric snapshot, one per line.")
                  $ Arg.(
                      value & flag
                      & info [ "json" ]
                          ~doc:
                            "Print the snapshot and the trace as one JSON \
                             object on stdout.")
                  $ Arg.(
                      value & opt (some string) None
                      & info [ "spans" ] ~docv:"FILE"
                          ~doc:
                            "Write the phase timeline as Chrome trace_event \
                             JSON to FILE (- for stdout); open in \
                             chrome://tracing or Perfetto.")
                  $ Arg.(
                      value & flag
                      & info [ "check" ]
                          ~doc:
                            "Validate the emitted JSON: it must re-parse, \
                             and the phase spans must nest inside their \
                             epoch and sum to its duration.")));
            Cmd.v
              (Cmd.info "trace"
                 ~doc:
                   "Boot a network with causal tracing on, trigger one \
                    reconfiguration, and reconstruct each epoch's \
                    propagation wave: who heard the epoch from whom, \
                    when, and where the heal latency went.")
              Term.(
                ret
                  (const cmd_trace $ topo_arg $ seed_arg $ hosts_arg
                  $ params_arg
                  $ fault_arg
                  $ Arg.(
                      value & flag
                      & info [ "json" ]
                          ~doc:
                            "Print the waves and flight recorders as one \
                             JSON object on stdout instead of the ASCII \
                             propagation trees.")
                  $ Arg.(
                      value & opt (some string) None
                      & info [ "spans" ] ~docv:"FILE"
                          ~doc:
                            "Write the per-switch span tracks as Chrome \
                             trace_event JSON to FILE (- for stdout); one \
                             track per switch, complementing the per-epoch \
                             tracks of the telemetry command.")
                  $ Arg.(
                      value & flag
                      & info [ "check" ]
                          ~doc:
                            "Validate the last healed wave: the JSON must \
                             re-parse and the propagation forest must \
                             cover every configured switch exactly once \
                             with valid parent hops."))) ]))

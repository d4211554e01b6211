(* The chaos harness itself: seed plumbing, campaign determinism across
   domain counts, and — via a deliberately broken invariant hook — the full
   failure path: violation, greedy shrink, reproducer artifact with the
   skew-normalized merged event log. *)

open Autonet_topo
module Chaos = Autonet_chaos.Chaos
module Oracle = Autonet_chaos.Oracle
module N = Autonet.Network
module Autopilot = Autonet_autopilot.Autopilot
module Pool = Autonet_parallel.Pool
module Time = Autonet_sim.Time
module F = Faults

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains text sub =
  let n = String.length sub in
  let rec scan i =
    i + n <= String.length text && (String.sub text i n = sub || scan (i + 1))
  in
  scan 0

(* A topology small enough that a schedule replays in milliseconds. *)
let tiny =
  { Chaos.default_config with
    topo = "ring:4";
    actions = 4;
    horizon = Time.ms 300 }

(* ------------------------------------------------------------------ *)
(* Seed plumbing *)

let test_schedule_seed () =
  (* Pure: schedule [i] replays without running schedules [0..i-1]. *)
  check_bool "pure" true
    (Chaos.schedule_seed ~seed:42L 17 = Chaos.schedule_seed ~seed:42L 17);
  (* Dispersed: neighbouring indices and campaign seeds all differ. *)
  let seeds =
    List.concat_map
      (fun c ->
        List.init 100 (fun i -> Chaos.schedule_seed ~seed:(Int64.of_int c) i))
      [ 0; 1; 42 ]
  in
  check_int "all distinct" (List.length seeds)
    (List.length (List.sort_uniq Int64.compare seeds))

let test_schedule_for_deterministic () =
  let s1 = Chaos.schedule_for tiny ~seed:7L in
  let s2 = Chaos.schedule_for tiny ~seed:7L in
  check_bool "same seed, same schedule" true (s1 = s2);
  check_bool "nonempty" true (s1 <> []);
  check_bool "sorted" true (F.sort s1 = s1);
  check_bool "different seed differs" true (s1 <> Chaos.schedule_for tiny ~seed:8L)

let test_build_topo () =
  (* One spec per family of the grammar. *)
  List.iter
    (fun (spec, switches) ->
      let t = Builders.of_spec spec ~seed:1L ~hosts:0 in
      check_int spec switches
        (List.length (Autonet_core.Graph.switches t.Builders.graph)))
    [ ("src", 30); ("figure9", 5); ("line:5", 5); ("ring:6", 6); ("star:4", 5);
      ("torus:3,3", 9); ("mesh:3,4", 12); ("tree:2,2", 7); ("random:16,8", 16) ];
  let h = Builders.of_spec "ring:4" ~seed:1L ~hosts:2 in
  check_bool "hosts attached" true
    (Autonet_core.Graph.hosts h.Builders.graph <> []);
  (* A malformed spec, a non-numeric field included, raises
     Invalid_argument naming the spec and the grammar. *)
  List.iter
    (fun spec ->
      match Builders.of_spec spec ~seed:1L ~hosts:0 with
      | exception Invalid_argument msg ->
        check_bool (spec ^ ": " ^ msg) true
          (contains msg spec && contains msg Builders.spec_grammar)
      | _ -> Alcotest.failf "%s: accepted" spec)
    [ "mobius:3"; "torus:a,3"; "random:8,4x"; "torus:3"; "line:"; "src:1" ]

(* ------------------------------------------------------------------ *)
(* Verdict lines *)

let test_pp_verdict () =
  let pp v = Format.asprintf "%a" Chaos.pp_verdict v in
  check_bool "pass line" true
    (pp { Chaos.index = 3; seed = 0x4D2L; events = 7; violations = [] }
    = "#0003 seed=0x00000000000004d2 events=07 PASS");
  (* Labels are sorted and deduplicated so the line is deterministic. *)
  check_bool "fail line" true
    (pp
       { Chaos.index = 12;
         seed = 0x4D2L;
         events = 10;
         violations =
           [ Oracle.Reference_mismatch; Oracle.Not_converged;
             Oracle.Reference_mismatch ] }
    = "#0012 seed=0x00000000000004d2 events=10 FAIL \
       [not-converged,reference-mismatch]")

(* ------------------------------------------------------------------ *)
(* Campaigns *)

(* The first schedules of the chaos-smoke campaign (same config, same
   campaign seed), re-run on explicit 1- and 2-domain pools: every verdict
   passes and the two verdict streams are identical — the determinism the
   seed-replay reproducers depend on. *)
let test_campaign_deterministic_across_pools () =
  let config = Chaos.default_config in
  let run domains =
    let pool = Pool.create ~domains () in
    let vs = Chaos.run_campaign ~pool config ~seed:42L ~schedules:4 in
    Pool.shutdown pool;
    vs
  in
  let d1 = run 1 in
  let d2 = run 2 in
  check_int "count" 4 (Array.length d1);
  Array.iter
    (fun v ->
      check_bool
        (Format.asprintf "%a" Chaos.pp_verdict v)
        true (Chaos.passed v))
    d1;
  check_bool "verdicts identical" true (d1 = d2);
  Array.iteri
    (fun i v ->
      check_bool "replayable seed" true (v.Chaos.seed = Chaos.schedule_seed ~seed:42L i);
      check_int "events"
        (List.length (Chaos.schedule_for config ~seed:v.Chaos.seed))
        v.Chaos.events)
    d1

(* ------------------------------------------------------------------ *)
(* Failure path: broken hook -> violation -> shrink -> artifact *)

(* The hook flags a violation whenever switch 2 ends the run powered off —
   not a real invariant, but it exercises the whole failure path with a
   known, minimal culprit item. *)
let switch2_down_hook net =
  if Autopilot.powered (N.autopilot net 2) then []
  else [ Oracle.Reference_mismatch ]

let noisy_schedule =
  F.sort
    (F.flapping_link ~link:0 ~start:(Time.ms 20) ~period:(Time.ms 40) ~cycles:2
    @ F.switch_crash ~switch:2 ~at:(Time.ms 50))

let test_hook_failure_and_shrink () =
  (* Without the hook the schedule passes every real invariant... *)
  let _, clean = Chaos.run_schedule tiny ~seed:5L ~schedule:noisy_schedule in
  check_bool "oracle clean" true (clean = []);
  (* ...with it, the run fails. *)
  let _, vs =
    Chaos.run_schedule ~hook:switch2_down_hook tiny ~seed:5L
      ~schedule:noisy_schedule
  in
  check_bool "hook fires" true (vs = [ Oracle.Reference_mismatch ]);
  (* The shrinker strips the flap noise and keeps only the culprit. *)
  let shrunk =
    Chaos.shrink ~hook:switch2_down_hook tiny ~seed:5L ~schedule:noisy_schedule
  in
  check_bool "shrunk to the culprit" true
    (match shrunk with
    | [ { F.event = F.Switch_down 2; _ } ] -> true
    | _ -> false);
  (* A passing schedule comes back unchanged. *)
  check_bool "pass unshrunk" true
    (Chaos.shrink tiny ~seed:5L ~schedule:noisy_schedule == noisy_schedule)

let test_investigate_artifact () =
  (* An always-broken invariant: every schedule fails, so index 0 of the
     campaign yields a full reproducer artifact.  The shrinker can strip
     everything but one item (a schedule is never shrunk to nothing). *)
  let hook _ = [ Oracle.Reference_mismatch ] in
  let a = Chaos.investigate ~hook ~log_tail:50 tiny ~seed:9L ~index:0 in
  check_bool "replayable seed" true (a.Chaos.a_seed = Chaos.schedule_seed ~seed:9L 0);
  check_bool "schedule regenerated" true
    (a.Chaos.a_schedule = Chaos.schedule_for tiny ~seed:a.Chaos.a_seed);
  check_bool "violations captured" true
    (List.mem Oracle.Reference_mismatch a.Chaos.a_violations);
  check_int "shrunk to one item" 1 (List.length a.Chaos.a_shrunk);
  check_bool "shrunk still fails" true (a.Chaos.a_shrunk_violations <> []);
  check_bool "merged log present" true (a.Chaos.a_log <> []);
  check_bool "log tail bounded" true (List.length a.Chaos.a_log <= 50);
  (* The log is skew-normalized: merged entries are in true-time order. *)
  let rec monotone = function
    | (t1, _, _) :: ((t2, _, _) :: _ as rest) ->
      t1 <= t2 && monotone rest
    | _ -> true
  in
  check_bool "log in true-time order" true (monotone a.Chaos.a_log);
  let contains = contains (Format.asprintf "%a" Chaos.pp_artifact a) in
  check_bool "artifact names the reproducer" true (contains "reproducer: topo=ring:4");
  check_bool "artifact shows the shrunk schedule" true
    (contains "shrunk schedule (1 items)");
  check_bool "artifact includes the log" true (contains "merged event log")

(* A schedule that powers off every switch leaves no live component, so
   the network can never converge — the run must report Not_converged
   within the sim-time timeout, not spin forever.  (Regression: the
   fuzzer's retarget mutation reached this state — the blind generator
   never does — and the engine froze the clock on the dead network's
   empty queue, livelocking run_until_converged.) *)
let test_all_switches_down_times_out () =
  let schedule =
    F.sort
      (List.concat_map
         (fun s -> F.switch_crash ~switch:s ~at:(Time.ms (50 * (s + 1))))
         [ 0; 1; 2; 3 ])
  in
  let _, vs = Chaos.run_schedule tiny ~seed:13L ~schedule in
  check_bool "not converged" true (List.mem Oracle.Not_converged vs)

(* ------------------------------------------------------------------ *)
(* Coverage-guided fuzzing *)

module Fuzz = Autonet_chaos.Fuzz

(* Span capped at 4 horizons: stretched monster schedules are the bench
   gate's business; here they only burn test time. *)
let fuzz_tiny =
  { (Fuzz.default tiny) with Fuzz.budget = 24; batch = 4; max_span = 4 }

(* The fuzz loop's determinism contract: same seed, same corpus and the
   same coverage, whatever the domain count — candidates are generated
   sequentially from one rng and results folded in submission order. *)
let test_fuzz_deterministic_across_pools () =
  let run domains =
    let pool = Pool.create ~domains () in
    let r = Fuzz.run ~pool fuzz_tiny ~seed:11L in
    Pool.shutdown pool;
    r
  in
  let r1 = run 1 in
  let r2 = run 2 in
  check_int "budget spent" 24 r1.Fuzz.r_executed;
  check_bool "corpus nonempty" true (r1.Fuzz.r_corpus <> []);
  check_int "distinct = corpus size" (List.length r1.Fuzz.r_corpus)
    r1.Fuzz.r_distinct;
  check_bool "corpora byte-identical" true
    (Fuzz.corpus_to_string r1.Fuzz.r_corpus
    = Fuzz.corpus_to_string r2.Fuzz.r_corpus);
  check_int "cells identical" r1.Fuzz.r_cells r2.Fuzz.r_cells;
  check_bool "failures identical" true (r1.Fuzz.r_failures = r2.Fuzz.r_failures)

let test_fuzz_corpus_roundtrip () =
  let r = Fuzz.run ~pool:(Pool.default ()) fuzz_tiny ~seed:11L in
  match Fuzz.corpus_of_string (Fuzz.corpus_to_string r.Fuzz.r_corpus) with
  | Error e -> Alcotest.failf "corpus parse failed: %s" e
  | Ok c ->
    check_bool "round trip preserves entries" true (c = r.Fuzz.r_corpus);
    (* Merging a corpus with itself adds nothing new. *)
    check_bool "self-merge is identity" true
      (Fuzz.merge_corpora [ r.Fuzz.r_corpus; r.Fuzz.r_corpus ]
      = Fuzz.merge_corpora [ r.Fuzz.r_corpus ])

(* A hook that throws mid-schedule must surface as a Check_raised
   violation with the telemetry of the failing run attached to the
   artifact — not tear down the campaign. *)
let test_check_raised_artifact () =
  let hook _ = failwith "oracle bug" in
  let a = Chaos.investigate ~hook ~log_tail:20 tiny ~seed:3L ~index:0 in
  check_bool "check-raised captured" true
    (List.exists
       (function Oracle.Check_raised _ -> true | _ -> false)
       a.Chaos.a_violations);
  check_bool "label renders" true
    (List.mem "check-raised" (List.map Oracle.label a.Chaos.a_violations));
  check_bool "telemetry snapshot attached" true (a.Chaos.a_metrics <> [])

(* ------------------------------------------------------------------ *)
(* Regression seed corpus *)

(* Every test/seeds/*.seed replays through the full oracle; an empty
   violation list means the pinned regression stays fixed. *)
let test_seed_corpus () =
  (* cwd is test/ under `dune runtest`; accept the repo root too. *)
  let dir = if Sys.file_exists "seeds" then "seeds" else "test/seeds" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seed")
    |> List.sort compare
  in
  check_bool "seed corpus present" true (List.length files >= 2);
  List.iter
    (fun f ->
      let ic = open_in (Filename.concat dir f) in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match Fuzz.seed_file_of_string text with
      | Error e -> Alcotest.failf "%s: parse failed: %s" f e
      | Ok sf ->
        (match Faults.validate sf.Fuzz.sf_schedule with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: invalid schedule: %s" f e);
        (match Fuzz.replay_seed sf with
        | [] -> ()
        | vs ->
          Alcotest.failf "%s: regression violated: %s" f
            (String.concat "," (List.map Oracle.label vs)));
        (* The file format survives a round trip, so re-pinning a seed
           from a corpus entry cannot corrupt it. *)
        check_bool (f ^ " round trip") true
          (Fuzz.seed_file_of_string (Fuzz.seed_file_to_string sf) = Ok sf))
    files

(* ------------------------------------------------------------------ *)
(* Delta frontier: the fuzzer as a cross-check amplifier *)

(* A pinned 200-schedule guided corpus replayed at 1, 2 and 4 domains:
   the oracle's per-switch delta-vs-full cross-check runs after every
   converged schedule, so any Delta_mismatch the mutated frontier can
   reach would land in r_failures; the three corpora must also be
   byte-identical (the shard-merge determinism story). *)
let test_fuzz_delta_frontier () =
  let cfg =
    { (Fuzz.default tiny) with Fuzz.budget = 200; batch = 8; max_span = 4 }
  in
  let runs =
    List.map
      (fun domains ->
        let pool = Pool.create ~domains () in
        let r = Fuzz.run ~pool cfg ~seed:17L in
        Pool.shutdown pool;
        r)
      [ 1; 2; 4 ]
  in
  let r1 = List.hd runs in
  List.iter
    (fun (r : Fuzz.result) ->
      check_bool "corpus identical across domains" true
        (Fuzz.corpus_to_string r.Fuzz.r_corpus
        = Fuzz.corpus_to_string r1.Fuzz.r_corpus))
    (List.tl runs);
  List.iter
    (fun (e : Fuzz.entry) ->
      if List.mem "delta-mismatch" e.Fuzz.e_violations then
        Alcotest.failf "delta mismatch on seed 0x%016Lx" e.Fuzz.e_seed)
    (List.concat_map (fun (r : Fuzz.result) -> r.Fuzz.r_failures) runs)

(* ------------------------------------------------------------------ *)
(* Churn *)

(* A short churn campaign: every heal converges, the periodic audits
   pass, and the campaign is deterministic in its seed. *)
let test_churn_short () =
  let report = Fuzz.churn ~check_every:8 tiny ~seed:21L ~cycles:16 in
  check_int "cycles" 16 report.Fuzz.ch_cycles;
  check_bool "heals happened" true (report.Fuzz.ch_heals > 0);
  check_int "no convergence timeouts" 0 report.Fuzz.ch_not_converged;
  check_bool "audits ran" true (report.Fuzz.ch_oracle_checks >= 2);
  check_bool "audits clean" true (report.Fuzz.ch_oracle_violations = []);
  check_bool "epochs accumulated" true
    (report.Fuzz.ch_epochs >= report.Fuzz.ch_heals);
  let again = Fuzz.churn ~check_every:8 tiny ~seed:21L ~cycles:16 in
  check_bool "deterministic" true
    (again.Fuzz.ch_epochs = report.Fuzz.ch_epochs
    && again.Fuzz.ch_max_heal = report.Fuzz.ch_max_heal
    && again.Fuzz.ch_metrics = report.Fuzz.ch_metrics)

(* ------------------------------------------------------------------ *)
(* Oracle *)

(* A host powered on after convergence is enabled without a
   reconfiguration (paper 6.5.3) and must then reach, and be reached from,
   every other endpoint: on line:3 with two hosts per switch, s0.p2 off at
   boot and on once the network converged.  Its port turns s.host 232 ms
   after power-on; with [reconfigure_after] a reconfiguration starts
   before that, so the port turns s.host while the epoch that missed it
   is still loading its tables. *)
let test_late_host_reaches_everyone ?reconfigure_after () =
  let net =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:5L
      (Builders.attach_hosts ~dual_homed:false (Builders.line ~n:3 ())
         ~per_switch:2)
  in
  let late = (0, 2) in
  Autonet_autopilot.Fabric.power_off_host (N.fabric net) late;
  N.start net;
  check_bool "converged" true (N.run_until_converged net <> None);
  Autonet_autopilot.Fabric.power_on_host (N.fabric net) late;
  Option.iter
    (fun dt ->
      N.run_for net dt;
      Autopilot.initiate_reconfiguration (N.autopilot net 1) ~reason:"test")
    reconfigure_after;
  N.run_for net (Time.s 3);
  match Oracle.check net with
  | [] -> ()
  | vs ->
    Alcotest.failf "%d violations, first: %a" (List.length vs)
      Oracle.pp_violation (List.hd vs)

(* The oracle refutes a corrupted loaded table.  On a converged torus:3,3
   with two hosts per switch, one remote entry of one switch's loaded
   table is overwritten (the load shares its pages copy-on-write, so the
   epoch cache's spec stays as it was) with
   (a) its ports plus a dead-end port above the lowest,
   (b) its ports plus the port the packet arrived on, where the upstream
       switch sends it straight back, and
   (c) no port.
   Each names an unreachable pair and its witness; a walk along the
   lowest port alone misses (a) and (b). *)
let test_oracle_refutes () =
  let module G = Autonet_core.Graph in
  let module Tables = Autonet_core.Tables in
  let module PV = Autonet_net.Port_vector in
  let net =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:5L
      (Builders.attach_hosts (Builders.torus ~rows:3 ~cols:3 ()) ~per_switch:2)
  in
  N.start net;
  check_bool "converged" true (N.run_until_converged net <> None);
  check_bool "clean before" true (Oracle.check net = []);
  let g = N.graph net and pilot = N.autopilot net in
  let table s =
    Autonet_switch.Forwarding_table.spec (Autopilot.forwarding_table (pilot s))
  in
  let host s =
    (List.find (fun (h : G.host_attachment) -> h.switch = s) (G.hosts g))
      .switch_port
  in
  let address (d, q) =
    Autonet_net.Short_address.assigned
      ~switch_number:(Option.get (Autopilot.switch_number (pilot d)))
      ~port:q
  in
  let ports s ~in_port dst =
    Tables.vector (Tables.lookup (table s) ~in_port ~dst:(address dst))
  in
  (* Oracle.check with [s]'s entry at ([in_port], [dst]) set to [v]. *)
  let check_with s ~in_port dst v =
    let dst = address dst in
    let old = Tables.lookup (table s) ~in_port ~dst in
    Tables.set (table s) ~in_port ~dst (Tables.entry ~broadcast:false v);
    let vs = Oracle.check net in
    Tables.set (table s) ~in_port ~dst old;
    vs
  in
  let unreachable src dst outcome = Oracle.Unreachable { src; dst; outcome } in
  let src = (0, host 0) and dst = (8, host 8) in
  let v = ports 0 ~in_port:(host 0) dst in
  let dead_end = Option.get (G.free_port g 0) in
  check_bool "dead end above the lowest" true
    (dead_end > Option.get (PV.lowest v));
  check_bool "(a) dead end" true
    (check_with 0 ~in_port:(host 0) dst (PV.add dead_end v)
    = [ unreachable src dst (Printf.sprintf "delivered at s0.p%d" dead_end) ]);
  check_bool "(c) no port" true
    (check_with 0 ~in_port:(host 0) dst PV.empty
    = [ unreachable src dst "discarded at s0" ]);
  (* (b): switch [k] sends [dst] from its host port over its port [kp] to
     switch [s], and sends back over [kp] what arrives there; [s] gets
     the port [sp] it received on, above its lowest, as one more
     alternative. *)
  let u_turn =
    List.find_map
      (fun k ->
        List.find_map
          (fun (kp, _, s, sp) ->
            List.find_map
              (fun d ->
                let dst = (d, host d) in
                let at_s = ports s ~in_port:sp dst in
                if
                  d <> s
                  && PV.mem kp (ports k ~in_port:(host k) dst)
                  && PV.mem kp (ports k ~in_port:kp dst)
                  && Option.fold ~none:false ~some:(fun p -> p < sp)
                       (PV.lowest at_s)
                then Some (k, s, sp, dst, at_s)
                else None)
              (G.switches g))
          (G.neighbors g k))
      (G.switches g)
  in
  match u_turn with
  | None -> Alcotest.fail "no switch sends a packet straight back"
  | Some (k, s, sp, dst, at_s) ->
    check_bool "(b) loop" true
      (List.mem
         (unreachable (k, host k) dst "looped")
         (check_with s ~in_port:sp dst (PV.add sp at_s)));
    check_bool "clean after" true (Oracle.check net = [])

let () =
  Alcotest.run "chaos"
    [ ( "seeds",
        [ Alcotest.test_case "schedule_seed" `Quick test_schedule_seed;
          Alcotest.test_case "schedule_for deterministic" `Quick
            test_schedule_for_deterministic;
          Alcotest.test_case "build_topo" `Quick test_build_topo ] );
      ( "verdicts",
        [ Alcotest.test_case "pp_verdict" `Quick test_pp_verdict ] );
      ( "campaign",
        [ Alcotest.test_case "deterministic across pools" `Slow
            test_campaign_deterministic_across_pools ] );
      ( "failure path",
        [ Alcotest.test_case "hook, violation, shrink" `Slow
            test_hook_failure_and_shrink;
          Alcotest.test_case "investigate artifact" `Slow
            test_investigate_artifact;
          Alcotest.test_case "check-raised artifact keeps telemetry" `Slow
            test_check_raised_artifact;
          Alcotest.test_case "all switches down times out" `Quick
            test_all_switches_down_times_out ] );
      ( "oracle",
        [ Alcotest.test_case "late host reaches everyone" `Quick
            (test_late_host_reaches_everyone ?reconfigure_after:None);
          Alcotest.test_case "host turning s.host mid-epoch reaches everyone"
            `Quick
            (test_late_host_reaches_everyone
               ~reconfigure_after:(Time.ms 200));
          Alcotest.test_case "corrupted entries are refuted" `Quick
            test_oracle_refutes ] );
      ( "fuzz",
        [ Alcotest.test_case "deterministic across pools" `Slow
            test_fuzz_deterministic_across_pools;
          Alcotest.test_case "corpus round trip and merge" `Slow
            test_fuzz_corpus_roundtrip;
          Alcotest.test_case "pinned delta frontier, {1,2,4} domains" `Slow
            test_fuzz_delta_frontier ] );
      ( "seed corpus",
        [ Alcotest.test_case "regression seed corpus replays clean" `Slow
            test_seed_corpus ] );
      ( "churn",
        [ Alcotest.test_case "short churn campaign" `Slow test_churn_short ] ) ]

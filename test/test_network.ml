(* Integration tests: whole simulated Autonets running the distributed
   reconfiguration protocol against faults, partitions, repairs, flapping
   links and random topologies.  The cornerstone check is
   [Network.verify_against_reference]: after every convergence the
   distributed outcome must equal the pure reference computation on the
   live physical topology. *)

open Autonet_core
module B = Autonet_topo.Builders
module F = Autonet_topo.Faults
module N = Autonet.Network
module AP = Autonet_autopilot.Autopilot
module Time = Autonet_sim.Time

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Tests use the fast preset to keep simulated convergence cheap. *)
let make ?(params = Autonet_autopilot.Params.fast) ?(seed = 1L) topo =
  let t = N.create ~params ~seed topo in
  N.start t;
  t

let converge ?(timeout = Time.s 60) t =
  match N.run_until_converged ~timeout t with
  | Some at -> at
  | None -> Alcotest.fail "network did not converge"

let test_boot_line () =
  let t = make (B.line ~n:4 ()) in
  ignore (converge t);
  check_bool "reference" true (N.verify_against_reference t)

let test_boot_torus () =
  let t = make (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2) in
  ignore (converge t);
  check_bool "reference" true (N.verify_against_reference t);
  (* All switches share the root and agree on switch numbers. *)
  let numbers =
    List.map
      (fun s -> Option.get (AP.switch_number (N.autopilot t s)))
      (Graph.switches (N.graph t))
  in
  check_int "distinct numbers" (List.length numbers)
    (List.length (List.sort_uniq Int.compare numbers))

let test_boot_single_switch () =
  let t = make (B.line ~n:1 ()) in
  ignore (converge t);
  let ap = N.autopilot t 0 in
  check_bool "configured alone" true (AP.configured ap);
  check_bool "is root" true
    (Autonet_net.Uid.equal (AP.position ap).Spanning_tree.Position.root (AP.uid ap))

let test_link_failure_reroutes () =
  let t = make (B.ring ~n:6 ()) in
  ignore (converge t);
  let l = List.hd (Graph.links (N.graph t)) in
  match
    N.measure_reconfiguration t ~trigger:(fun t ->
        N.apply_fault t (F.Link_down l.Graph.id))
  with
  | None -> Alcotest.fail "no reconvergence after link failure"
  | Some m ->
    check_bool "reference" true (N.verify_against_reference t);
    check_bool "detected quickly" true (m.N.detection < Time.ms 100);
    check_bool "reconfigured" true (m.N.reconfiguration > Time.zero)

let test_link_repair_reincorporates () =
  let t = make (B.ring ~n:6 ()) in
  ignore (converge t);
  let l = List.hd (Graph.links (N.graph t)) in
  N.apply_fault t (F.Link_down l.Graph.id);
  ignore (converge t);
  (* The ring lost a link: it is now a line. *)
  check_bool "reference after failure" true (N.verify_against_reference t);
  N.apply_fault t (F.Link_up l.Graph.id);
  ignore (converge t);
  check_bool "reference after repair" true (N.verify_against_reference t);
  (* The repaired link is usable again in some switch's report. *)
  let ap = N.autopilot t 0 in
  match AP.complete_report ap with
  | Some r -> check_int "all switches back" 6 (Topology_report.size r)
  | None -> Alcotest.fail "no complete report"

let test_partition_and_heal () =
  (* Failing both cut links of a 6-ring partitions it into two lines of 3;
     each side must configure itself independently. *)
  let t = make (B.ring ~n:6 ()) in
  ignore (converge t);
  (* Find the two links whose removal splits {0,1,2} from {3,4,5}. *)
  let cut =
    List.filter
      (fun (l : Graph.link) ->
        let sa, _ = l.a and sb, _ = l.b in
        let side s = s <= 2 in
        side sa <> side sb)
      (Graph.links (N.graph t))
  in
  check_int "two cut links" 2 (List.length cut);
  List.iter (fun (l : Graph.link) -> N.apply_fault t (F.Link_down l.Graph.id)) cut;
  ignore (converge t);
  check_bool "both partitions configured" true (N.verify_against_reference t);
  (* Two distinct components, two roots. *)
  let roots =
    List.sort_uniq compare
      (List.map
         (fun s -> (AP.position (N.autopilot t s)).Spanning_tree.Position.root)
         (Graph.switches (N.graph t)))
  in
  check_int "two roots" 2 (List.length roots);
  (* Heal. *)
  List.iter (fun (l : Graph.link) -> N.apply_fault t (F.Link_up l.Graph.id)) cut;
  ignore (converge t);
  check_bool "healed" true (N.verify_against_reference t);
  let roots =
    List.sort_uniq compare
      (List.map
         (fun s -> (AP.position (N.autopilot t s)).Spanning_tree.Position.root)
         (Graph.switches (N.graph t)))
  in
  check_int "one root" 1 (List.length roots)

let test_switch_crash () =
  let t = make (B.torus ~rows:3 ~cols:3 ()) in
  ignore (converge t);
  (* Crash a non-root switch. *)
  let victim = 4 in
  N.apply_fault t (F.Switch_down victim);
  ignore (converge t);
  check_bool "reference" true (N.verify_against_reference t);
  check_bool "victim dark" false (AP.configured (N.autopilot t victim));
  (* Survivors' reports no longer include the victim. *)
  let ap = N.autopilot t 0 in
  (match AP.complete_report ap with
  | Some r -> check_int "eight left" 8 (Topology_report.size r)
  | None -> Alcotest.fail "no report");
  (* Reboot. *)
  N.apply_fault t (F.Switch_up victim);
  ignore (converge t);
  check_bool "rejoined" true (N.verify_against_reference t);
  match AP.complete_report (N.autopilot t victim) with
  | Some r -> check_int "nine again" 9 (Topology_report.size r)
  | None -> Alcotest.fail "victim has no report"

let test_root_crash () =
  (* Killing the root (smallest UID) forces electing a new one. *)
  let t = make (B.torus ~rows:3 ~cols:3 ()) in
  ignore (converge t);
  let g = N.graph t in
  let root =
    List.fold_left
      (fun best s ->
        if Autonet_net.Uid.compare (Graph.uid g s) (Graph.uid g best) < 0 then s
        else best)
      0 (Graph.switches g)
  in
  N.apply_fault t (F.Switch_down root);
  ignore (converge t);
  check_bool "reference after root crash" true (N.verify_against_reference t);
  let survivor = if root = 0 then 1 else 0 in
  let new_root = (AP.position (N.autopilot t survivor)).Spanning_tree.Position.root in
  check_bool "new root differs" false
    (Autonet_net.Uid.equal new_root (Graph.uid g root))

let test_short_addresses_stable_across_epochs () =
  (* Switch numbers survive a reconfiguration that does not renumber
     (paper 6.6.3): fail a link, numbers should not change. *)
  let t = make (B.torus ~rows:3 ~cols:3 ()) in
  ignore (converge t);
  let numbers_before =
    List.map (fun s -> AP.switch_number (N.autopilot t s)) (Graph.switches (N.graph t))
  in
  let l = List.hd (Graph.links (N.graph t)) in
  N.apply_fault t (F.Link_down l.Graph.id);
  ignore (converge t);
  let numbers_after =
    List.map (fun s -> AP.switch_number (N.autopilot t s)) (Graph.switches (N.graph t))
  in
  check_bool "numbers preserved" true (numbers_before = numbers_after)

let test_flapping_link_bounded_reconfigs () =
  (* A link that flaps is progressively held down by the skeptics, so the
     number of reconfigurations stays well below the number of flaps. *)
  let t = make (B.ring ~n:4 ()) in
  ignore (converge t);
  let l = List.hd (Graph.links (N.graph t)) in
  let flaps = 30 in
  N.schedule_faults t
    (F.flapping_link ~link:l.Graph.id ~start:(Time.add (N.now t) (Time.ms 100))
       ~period:(Time.ms 300) ~cycles:flaps);
  let before =
    List.fold_left
      (fun acc s ->
        acc + (AP.stats (N.autopilot t s)).AP.reconfigurations_started)
      0
      (Graph.switches (N.graph t))
  in
  N.run_for t (Time.s 12);
  let after =
    List.fold_left
      (fun acc s ->
        acc + (AP.stats (N.autopilot t s)).AP.reconfigurations_started)
      0
      (Graph.switches (N.graph t))
  in
  let initiated = after - before in
  (* Without hysteresis every down and every up could start an epoch at
     each of 4 switches: ~2 * 30 * 4.  Demand at least 4x better. *)
  check_bool
    (Printf.sprintf "bounded reconfigurations (%d)" initiated)
    true
    (initiated < 2 * flaps);
  (* And once the flapping stops, the network settles again. *)
  ignore (converge t);
  check_bool "settles" true (N.verify_against_reference t)

let test_epochs_monotonic () =
  let t = make (B.ring ~n:4 ()) in
  ignore (converge t);
  let e1 = AP.epoch (N.autopilot t 0) in
  let l = List.hd (Graph.links (N.graph t)) in
  N.apply_fault t (F.Link_down l.Graph.id);
  ignore (converge t);
  let e2 = AP.epoch (N.autopilot t 0) in
  check_bool "epoch grew" true (Epoch.(e2 > e1))

let test_loop_link_excluded () =
  (* Cable two ports of the same switch together: the connectivity monitor
     must classify them as loops and keep them out of the configuration. *)
  let topo = B.line ~n:2 () in
  let g = topo.B.graph in
  ignore (Graph.connect g (0, 5) (0, 6));
  let t = make topo in
  ignore (converge t);
  N.run_for t (Time.s 2);
  let ap = N.autopilot t 0 in
  check_bool "p5 loop" true
    (AP.port_state ap ~port:5 = Autonet_autopilot.Port_state.Switch_loop);
  check_bool "p6 loop" true
    (AP.port_state ap ~port:6 = Autonet_autopilot.Port_state.Switch_loop);
  check_bool "reference" true (N.verify_against_reference t)

let test_host_ports_classified () =
  let t = make (B.attach_hosts (B.line ~n:2 ()) ~per_switch:2) in
  ignore (converge t);
  N.run_for t (Time.s 1);
  let g = N.graph t in
  List.iter
    (fun (h : Graph.host_attachment) ->
      let st = AP.port_state (N.autopilot t h.switch) ~port:h.switch_port in
      check_bool
        (Printf.sprintf "s%d.p%d is host (%s)" h.switch h.switch_port
           (Autonet_autopilot.Port_state.to_string st))
        true
        (st = Autonet_autopilot.Port_state.Host))
    (Graph.hosts g)

(* [loaded_spec] copies the switch's table; the reference rebuilds it entry
   by entry from [rows_of], the conversion it replaced.  A host powered on
   after convergence and a host port forced dead exercise the in-place
   edits. *)
let test_loaded_spec_matches_rows () =
  let module FT = Autonet_switch.Forwarding_table in
  let module PV = Autonet_switch.Port_vector in
  let module Fabric = Autonet_autopilot.Fabric in
  let module PS = Autonet_autopilot.Port_state in
  let t =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:1L
      (B.attach_hosts ~dual_homed:false (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2)
  in
  let late, gone =
    match Graph.hosts (N.graph t) with
    | a :: b :: _ -> ((a.switch, a.switch_port), (b.switch, b.switch_port))
    | _ -> Alcotest.fail "two hosts expected"
  in
  Fabric.power_off_host (N.fabric t) late;
  N.start t;
  ignore (converge t);
  Fabric.power_on_host (N.fabric t) late;
  Fabric.set_host_active (N.fabric t) late true;
  N.run_for t (Time.s 3);
  AP.force_port_dead (N.autopilot t (fst gone)) ~port:(snd gone);
  let state (s, p) = AP.port_state (N.autopilot t s) ~port:p in
  check_bool "late host enabled" true (state late = PS.Host);
  check_bool "gone host disabled" true (state gone <> PS.Host);
  let has_row (s, p) = FT.has_row (AP.forwarding_table (N.autopilot t s)) ~in_port:p in
  check_bool "late row installed" true (has_row late);
  check_bool "gone row removed" false (has_row gone);
  List.iter
    (fun s ->
      let ft = AP.forwarding_table (N.autopilot t s) in
      let entries =
        List.concat_map
          (fun in_port ->
            List.map
              (fun (addr, (e : FT.entry)) ->
                ( (in_port, addr),
                  { Tables.broadcast = e.FT.broadcast;
                    ports = PV.to_list e.FT.vector } ))
              (FT.rows_of ft ~in_port))
          (List.init (FT.max_ports ft + 1) Fun.id)
      in
      check_bool
        (Printf.sprintf "switch %d" s)
        true
        (Tables.equal_spec (N.loaded_spec t s)
           (Tables.of_entries ~switch:s entries)))
    (Graph.switches (N.graph t))

let test_merged_log_is_chronological () =
  let t = make (B.ring ~n:4 ()) in
  ignore (converge t);
  let log = N.merged_log t in
  check_bool "nonempty" true (List.length log > 10);
  let rec sorted = function
    | (a, _, _) :: ((b, _, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  check_bool "chronological" true (sorted log)

let test_reconfig_presets_ladder () =
  (* tuned must beat naive; fast must beat tuned — the paper's performance
     ladder, on a smaller torus to keep the test quick. *)
  let time_of params =
    let t = make ~params (B.torus ~rows:3 ~cols:3 ()) in
    ignore (converge t);
    let l = List.hd (Graph.links (N.graph t)) in
    match
      N.measure_reconfiguration t ~trigger:(fun t ->
          N.apply_fault t (F.Link_down l.Graph.id))
    with
    | Some m -> m.N.reconfiguration
    | None -> Alcotest.fail "no reconvergence"
  in
  let naive = time_of Autonet_autopilot.Params.naive in
  let tuned = time_of Autonet_autopilot.Params.tuned in
  let fast = time_of Autonet_autopilot.Params.fast in
  check_bool
    (Format.asprintf "ladder %a > %a > %a" Time.pp naive Time.pp tuned Time.pp fast)
    true
    (naive > tuned && tuned > fast)

let test_multi_fault_soak () =
  (* A long adversarial life for one network: a random sequence of link
     failures, repairs, switch crashes and reboots, checking after each
     convergence that the distributed state equals the reference — the
     protocol's endurance test. *)
  let rng = Autonet_sim.Rng.create ~seed:4242L in
  let t = make ~seed:7L (B.torus ~rows:3 ~cols:3 ()) in
  ignore (converge t);
  let g = N.graph t in
  let links = Array.of_list (Graph.links g) in
  let downed_links = ref [] in
  let downed_switches = ref [] in
  for round = 1 to 20 do
    (* Pick an action that keeps at least a connected remnant alive. *)
    let action = Autonet_sim.Rng.int rng 4 in
    (match action with
    | 0 ->
      let l = links.(Autonet_sim.Rng.int rng (Array.length links)) in
      if not (List.mem l.Graph.id !downed_links) then begin
        downed_links := l.Graph.id :: !downed_links;
        N.apply_fault t (F.Link_down l.Graph.id)
      end
    | 1 -> (
      match !downed_links with
      | l :: rest ->
        downed_links := rest;
        N.apply_fault t (F.Link_up l)
      | [] -> ())
    | 2 ->
      if List.length !downed_switches < 2 then begin
        let s = Autonet_sim.Rng.int rng 9 in
        if not (List.mem s !downed_switches) then begin
          downed_switches := s :: !downed_switches;
          N.apply_fault t (F.Switch_down s)
        end
      end
    | _ -> (
      match !downed_switches with
      | s :: rest ->
        downed_switches := rest;
        N.apply_fault t (F.Switch_up s)
      | [] -> ()));
    (match N.run_until_converged ~timeout:(Time.s 120) t with
    | Some _ -> ()
    | None -> Alcotest.failf "round %d: did not converge" round);
    if not (N.verify_against_reference t) then
      Alcotest.failf "round %d: diverged from the reference" round
  done;
  (* Heal everything and confirm the full torus returns. *)
  List.iter (fun l -> N.apply_fault t (F.Link_up l)) !downed_links;
  List.iter (fun s -> N.apply_fault t (F.Switch_up s)) !downed_switches;
  ignore (converge t);
  check_bool "healed to the full torus" true (N.verify_against_reference t);
  match AP.complete_report (N.autopilot t 0) with
  | Some r -> check_int "all nine back" 9 (Topology_report.size r)
  | None -> Alcotest.fail "no report"

let random_topology_converges =
  QCheck.Test.make ~name:"random topologies converge to the reference" ~count:8
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 99)) in
      let topo = Testlib.random_topology rng ~max_n:8 in
      let t = make ~seed:(Int64.of_int seed) topo in
      match N.run_until_converged ~timeout:(Time.s 60) t with
      | None -> false
      | Some _ -> N.verify_against_reference t)

let random_fault_converges =
  QCheck.Test.make ~name:"random faults reconverge to the reference" ~count:6
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 7)) in
      let topo = Testlib.random_topology rng ~max_n:8 in
      let t = make ~seed:(Int64.of_int seed) topo in
      match N.run_until_converged ~timeout:(Time.s 60) t with
      | None -> false
      | Some _ -> (
        let links = Graph.links (N.graph t) in
        let l = List.nth links (Autonet_sim.Rng.int rng (List.length links)) in
        N.apply_fault t (F.Link_down l.Graph.id);
        match N.run_until_converged ~timeout:(Time.s 60) t with
        | None -> false
        | Some _ -> N.verify_against_reference t))

let () =
  Alcotest.run "network"
    [ ( "boot",
        [ Alcotest.test_case "line" `Quick test_boot_line;
          Alcotest.test_case "torus with hosts" `Quick test_boot_torus;
          Alcotest.test_case "single switch" `Quick test_boot_single_switch ] );
      ( "faults",
        [ Alcotest.test_case "link failure" `Quick test_link_failure_reroutes;
          Alcotest.test_case "link repair" `Quick test_link_repair_reincorporates;
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "switch crash" `Quick test_switch_crash;
          Alcotest.test_case "root crash" `Quick test_root_crash ] );
      ( "protocol",
        [ Alcotest.test_case "addresses stable" `Quick
            test_short_addresses_stable_across_epochs;
          Alcotest.test_case "flapping bounded" `Slow
            test_flapping_link_bounded_reconfigs;
          Alcotest.test_case "epochs monotonic" `Quick test_epochs_monotonic;
          Alcotest.test_case "loop links excluded" `Quick test_loop_link_excluded;
          Alcotest.test_case "host ports classified" `Quick
            test_host_ports_classified;
          Alcotest.test_case "loaded spec matches rows" `Quick
            test_loaded_spec_matches_rows;
          Alcotest.test_case "merged log chronological" `Quick
            test_merged_log_is_chronological;
          Alcotest.test_case "preset ladder" `Slow test_reconfig_presets_ladder ] );
      ( "soak",
        [ Alcotest.test_case "twenty random faults" `Slow test_multi_fault_soak ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest random_topology_converges;
          QCheck_alcotest.to_alcotest random_fault_converges ] ) ]

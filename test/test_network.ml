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
module EC = Autonet_autopilot.Epoch_cache
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

(* Failing the links that cross [side] partitions the network; each side
   must configure itself independently, on its own epoch-cache entry. *)
let test_partition_and_heal topo ~side ~cut_links () =
  let t = make topo in
  ignore (converge t);
  let cut =
    List.filter
      (fun (l : Graph.link) ->
        let sa, _ = l.a and sb, _ = l.b in
        side sa <> side sb)
      (Graph.links (N.graph t))
  in
  check_int "cut links" cut_links (List.length cut);
  let roots () =
    List.length
      (List.sort_uniq compare
         (List.map
            (fun s -> (AP.position (N.autopilot t s)).Spanning_tree.Position.root)
            (Graph.switches (N.graph t))))
  in
  let live () = (EC.stats (N.epoch_cache t)).EC.live in
  check_int "one live entry" 1 (live ());
  List.iter (fun (l : Graph.link) -> N.apply_fault t (F.Link_down l.Graph.id)) cut;
  ignore (converge t);
  check_bool "both partitions configured" true (N.verify_against_reference t);
  check_int "two roots" 2 (roots ());
  check_int "an entry per side" 2 (live ());
  List.iter (fun (l : Graph.link) -> N.apply_fault t (F.Link_up l.Graph.id)) cut;
  ignore (converge t);
  check_bool "healed" true (N.verify_against_reference t);
  check_int "one root" 1 (roots ());
  check_int "one entry again" 1 (live ())

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

(* [Network.converged] walks the graph in place; [Reference.converged]
   is the definition it replaced, over a copy of the live graph.  Each
   network is polled every 2 ms from boot, through its faults, until it
   has converged after the last one, and the two checks must agree at
   every poll.  Seeded chaos schedules crash switches and split the
   network while epochs are in flight; the loop-link graph of "loop links
   excluded" adds a report that must leave a cabled port out; a forged
   [Complete] that also names an unlinked switch, which every switch
   configures on, is a report that describes each member's links
   correctly yet names more switches than the component holds; and a
   reconfiguration started on a converged network changes nothing in the
   fabric, only a switch's epoch and configured flag. *)
let test_converged_matches_reference () =
  let module Chaos = Autonet_chaos.Chaos in
  let verdicts = Array.make 2 0 in
  let partitioned = ref false and powered_off = ref false in
  let poll name t =
    let c = N.converged t in
    if c <> Reference.converged t then
      Alcotest.failf "%s at %a: converged %b, reference %b" name Time.pp
        (N.now t) c (not c);
    verdicts.(Bool.to_int c) <- verdicts.(Bool.to_int c) + 1;
    if List.length (N.live_components t) > 1 then partitioned := true;
    if
      List.exists
        (fun s -> not (AP.powered (N.autopilot t s)))
        (Graph.switches (N.graph t))
    then powered_off := true;
    c
  in
  let rec follow name t ~last =
    if poll name t && N.now t > last then ()
    else if N.now t > Time.add last (Time.s 60) then
      Alcotest.failf "%s: no convergence after the last fault" name
    else begin
      N.run_for t (Time.ms 2);
      follow name t ~last
    end
  in
  List.iter
    (fun (topo, seed) ->
      let config = { Chaos.default_config with topo } in
      let schedule = Chaos.schedule_for config ~seed in
      let t =
        N.create ~params:config.params ~seed
          (Chaos.build_topo topo ~seed ~hosts:config.hosts)
      in
      N.start t;
      N.schedule_faults t schedule;
      let last =
        List.fold_left (fun acc (it : F.item) -> Time.max acc it.at) Time.zero
          schedule
      in
      follow (Printf.sprintf "%s seed %Ld" topo seed) t ~last)
    [ ("src", 1L); ("src", 2L); ("torus:3,3", 1L); ("torus:3,3", 2L);
      ("random:8,4", 1L); ("random:8,4", 2L) ];
  let topo = B.line ~n:2 () in
  ignore (Graph.connect topo.B.graph (0, 5) (0, 6));
  let t = make topo in
  follow "loop link" t ~last:(Time.s 2);
  let t = make (B.torus ~rows:3 ~cols:3 ()) in
  ignore (converge t);
  let g = N.graph t in
  let real = Option.get (AP.complete_report (N.autopilot t 0)) in
  let extra =
    Autonet_net.Uid.of_int
      (1
      + List.fold_left
          (fun m s -> max m (Autonet_net.Uid.to_int (Graph.uid g s)))
          0 (Graph.switches g))
  in
  let forged =
    Topology_report.merge real
      (Topology_report.singleton ~max_ports:(Graph.max_ports g)
         (Topology_report.switch_desc ~uid:extra ~proposed_number:1
            ~max_ports:(Graph.max_ports g) []))
  in
  let epoch = Epoch.next (AP.epoch (N.autopilot t 0)) in
  List.iter
    (fun s ->
      match Graph.neighbors g s with
      | (_, _, peer, peer_port) :: _ ->
        Autonet_autopilot.Fabric.switch_send (N.fabric t) ~from:peer
          ~port:peer_port
          (Autonet_autopilot.Messages.to_packet
             (Autonet_autopilot.Messages.Complete
                { epoch; seq = 1; report = forged }))
      | [] -> Alcotest.fail "torus switch without neighbours")
    (Graph.switches g);
  for _ = 1 to 250 do
    ignore (poll "forged complete" t);
    N.run_for t (Time.ms 2)
  done;
  List.iter
    (fun s ->
      let ap = N.autopilot t s in
      if
        not
          (AP.configured ap
          && Topology_report.size (Option.get (AP.complete_report ap))
             = Graph.switch_count g + 1)
      then Alcotest.failf "forged complete: switch %d not configured on it" s)
    (Graph.switches g);
  (* A reconfiguration on a converged network that no fabric change
     provoked: the switch that starts it is unconfigured at once. *)
  let t = make (B.torus ~rows:3 ~cols:3 ()) in
  ignore (converge t);
  AP.initiate_reconfiguration (N.autopilot t 4) ~reason:"test";
  follow "reconfiguration without a fault" t ~last:(N.now t);
  Printf.printf "polls: %d not converged, %d converged\n" verdicts.(0)
    verdicts.(1);
  if verdicts.(0) < 100 || verdicts.(1) < 100 then
    Alcotest.failf "polls: %d not converged, %d converged (want 100 of each)"
      verdicts.(0) verdicts.(1);
  check_bool "a run was partitioned" true !partitioned;
  check_bool "a run had a switch powered off" true !powered_off

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

(* A late host port's rows that a table load alone does not give it:
   every table holds the constant one-hop rows at every in-port, so a
   row there proves nothing.  Port [p] of switch [s] must reach another
   switch's control processor and originate broadcasts. *)
let check_late_rows t (s, p) =
  let module FT = Autonet_switch.Forwarding_table in
  let ft = AP.forwarding_table (N.autopilot t s) in
  let other = if s = 0 then 1 else 0 in
  let cp =
    Autonet_net.Short_address.assigned
      ~switch_number:(Option.get (AP.switch_number (N.autopilot t other)))
      ~port:0
  in
  let forwards dst =
    not
      (Autonet_net.Port_vector.is_empty
         (Tables.vector (FT.lookup ft ~in_port:p ~dst)))
  in
  check_bool
    (Printf.sprintf "s%d.p%d routes to s%d's control processor" s p other)
    true (forwards cp);
  check_bool
    (Printf.sprintf "s%d.p%d originates broadcasts" s p)
    true
    (forwards Autonet_net.Short_address.broadcast_all)

(* [loaded_spec] copies the switch's table; the reference rebuilds it entry
   by entry from [rows_of].  A host powered on after convergence and a
   host port forced dead exercise the in-place edits. *)
let test_loaded_spec_matches_rows () =
  let module FT = Autonet_switch.Forwarding_table in
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
  N.run_for t (Time.s 3);
  AP.force_port_dead (N.autopilot t (fst gone)) ~port:(snd gone);
  let state (s, p) = AP.port_state (N.autopilot t s) ~port:p in
  check_bool "late host enabled" true (state late = PS.Host);
  check_bool "gone host disabled" true (state gone <> PS.Host);
  check_late_rows t late;
  let gone_ft = AP.forwarding_table (N.autopilot t (fst gone)) in
  let constant =
    Tables.constant ~switch:(fst gone) ~max_ports:(FT.max_ports gone_ft)
  in
  check_bool "gone port holds exactly the constant rows" true
    (FT.rows_of gone_ft ~in_port:(snd gone)
    = Tables.row constant ~in_port:(snd gone));
  List.iter
    (fun s ->
      let ft = AP.forwarding_table (N.autopilot t s) in
      let entries =
        List.concat_map
          (fun in_port ->
            List.map (fun (addr, e) -> ((in_port, addr), e)) (FT.rows_of ft ~in_port))
          (List.init (FT.max_ports ft + 1) Fun.id)
      in
      check_bool
        (Printf.sprintf "switch %d" s)
        true
        (Tables.equal_spec (N.loaded_spec t s)
           (Tables.of_entries ~switch:s entries)))
    (Graph.switches (N.graph t))

(* --- The epoch cache ---------------------------------------------------

   The network computes each epoch once, yet every switch must end up
   exactly where its own per-switch chain ([Old_chain], from that switch's
   own previous commit) would have taken it.  [replay] steps the engine
   one event at a time; every switch that finished an epoch in that event
   is replayed, and the step-5 events it logged in that event must equal
   the replay's. *)

module Event_log = Autonet_autopilot.Event_log
module FT = Autonet_switch.Forwarding_table

type replay = {
  net : N.t;
  prevs : Delta.committed option array;  (* each switch's own lineage *)
  tables : Tables.spec option array;
  seen : Topology_report.t option array;
  logged : int array;
  mutable finishes : (Epoch.t * Topology_report.t * bool) list;
      (* newest first: epoch, report, took the delta path *)
}

let replay net =
  let n = Graph.switch_count (N.graph net) in
  { net;
    prevs = Array.make n None;
    tables = Array.make n None;
    seen = Array.make n None;
    logged = Array.make n 0;
    finishes = [] }

let observe r =
  Array.iteri
    (fun s _ ->
      let ap = N.autopilot r.net s in
      let log = AP.event_log ap in
      let fresh = Event_log.total_logged log - r.logged.(s) in
      r.logged.(s) <- Event_log.total_logged log;
      let logged =
        if fresh = 0 then []
        else
          let entries = Event_log.entries log in
          List.filteri (fun i _ -> i >= List.length entries - fresh) entries
          |> List.map (fun (e : Event_log.entry) -> e.event)
          |> List.filter Old_chain.step5
      in
      (* A powered-off switch forgets its commit. *)
      if not (AP.powered ap) then r.prevs.(s) <- None;
      let expected =
        match AP.complete_report ap with
        | Some report as cur when cur != r.seen.(s) -> (
          r.seen.(s) <- cur;
          let root =
            Autonet_net.Uid.equal
              (AP.position ap).Spanning_tree.Position.root (AP.uid ap)
          in
          match Old_chain.run ~prev:r.prevs.(s) ~root report (AP.uid ap) with
          | None -> Alcotest.failf "s%d: report without it" s
          | Some res ->
            r.prevs.(s) <- Some res.committed;
            r.tables.(s) <- Some res.table;
            r.finishes <-
              ( AP.epoch ap,
                report,
                List.exists
                  (function Autonet_autopilot.Event.Delta_applied _ -> true | _ -> false)
                  res.events )
              :: r.finishes;
            res.events)
        | cur ->
          r.seen.(s) <- cur;
          []
      in
      if logged <> expected then
        Alcotest.failf "s%d at %a: logged [%s], its own chain [%s]" s Time.pp
          (N.now r.net)
          (String.concat "; " (List.map Autonet_autopilot.Event.to_string logged))
          (String.concat "; "
             (List.map Autonet_autopilot.Event.to_string expected)))
    r.prevs

(* [run_until_converged], one observed event at a time; then every
   powered switch must have been handed its own chain's table: its delta
   spec, or its row of the entry's shared tables.  (What it loaded is
   that table plus its own host-port edits, as before.) *)
let replay_converge r =
  let engine = N.engine r.net in
  let deadline = Time.add (N.now r.net) (Time.s 60) in
  let rec step limit =
    let before = Autonet_sim.Engine.events_executed engine in
    Autonet_sim.Engine.run engine ~until:limit ~max_events:1;
    if Autonet_sim.Engine.events_executed engine > before then begin
      observe r;
      step limit
    end
  in
  let rec loop () =
    if not (N.converged r.net) then begin
      if N.now r.net >= deadline then Alcotest.fail "network did not converge";
      step (Time.min deadline (Time.add (N.now r.net) (Time.ms 2)));
      loop ()
    end
  in
  loop ();
  Array.iteri
    (fun s own ->
      let ap = N.autopilot r.net s in
      match (AP.powered ap, own, AP.complete_report ap) with
      | false, _, _ -> ()
      | true, Some own, Some report ->
        let handed =
          match AP.delta_spec ap with
          | Some spec -> Some spec
          | None ->
            Option.bind (EC.tables (N.epoch_cache r.net) report) (fun all ->
                Option.map (Array.get all)
                  (Graph.switch_of_uid (Topology_report.to_graph report)
                     (AP.uid ap)))
        in
        check_bool
          (Printf.sprintf "s%d was handed its own chain's table" s)
          true
          (match handed with
          | Some spec -> Tables.equal_spec spec own
          | None -> false)
      | true, _, _ -> Alcotest.failf "s%d configured without a table" s)
    r.tables

(* Boot, fail a non-tree link, heal it, reboot a switch: after every
   convergence each switch agrees with its own chain, and both paths ran. *)
let test_cache_replays_own_chain topo () =
  let net = N.create ~params:Autonet_autopilot.Params.fast ~seed:1L topo in
  let r = replay net in
  N.start net;
  observe r;
  replay_converge r;
  let g = N.graph net in
  let l = (Testlib.non_tree_link g).Graph.id in
  let v = Graph.switch_count g - 1 in
  List.iter
    (fun fault ->
      N.apply_fault net fault;
      observe r;
      replay_converge r)
    [ F.Link_down l; F.Link_up l; F.Switch_down v; F.Switch_up v ];
  check_bool "some switch took the delta path" true
    (List.exists (fun (_, _, d) -> d) r.finishes);
  check_bool "some switch took the full path" true
    (List.exists (fun (_, _, d) -> not d) r.finishes)

(* Per fault: one lookup per finishing switch, and per epoch and
   component one computation — full or delta — with every other lookup a
   hit. *)
let test_cache_work_counter () =
  let net =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:1L
      (B.torus ~rows:4 ~cols:4 ())
  in
  let r = replay net in
  N.start net;
  observe r;
  replay_converge r;
  let g = N.graph net in
  let l = (Testlib.non_tree_link g).Graph.id in
  List.iter
    (fun fault ->
      let s0 = EC.stats (N.epoch_cache net) in
      r.finishes <- [];
      N.apply_fault net fault;
      observe r;
      replay_converge r;
      let s1 = EC.stats (N.epoch_cache net) in
      let finishes = List.length r.finishes in
      let epochs =
        List.fold_left
          (fun acc (e, rep, _) ->
            if
              List.exists
                (fun (e', rep') ->
                  Epoch.equal e e' && Topology_report.equal rep rep')
                acc
            then acc
            else (e, rep) :: acc)
          [] r.finishes
        |> List.length
      in
      check_int "a lookup per finish" finishes (s1.EC.lookups - s0.EC.lookups);
      check_int "a computation per epoch" epochs
        (s1.EC.fulls + s1.EC.deltas - s0.EC.fulls - s0.EC.deltas);
      check_int "the other lookups hit" (finishes - epochs)
        (s1.EC.hits - s0.EC.hits))
    [ F.Link_down l; F.Link_up l; F.Switch_down 5; F.Switch_up 5 ];
  check_bool "the link fault took the delta path" true
    ((EC.stats (N.epoch_cache net)).EC.deltas > 0)

(* A host enabled after the epoch edits only its own switch's copy of the
   table: every other switch's loaded table and the shared entry stay as
   they were. *)
let test_late_host_edits_only_its_copy () =
  let module Fabric = Autonet_autopilot.Fabric in
  let t =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:1L
      (B.attach_hosts ~dual_homed:false (B.torus ~rows:3 ~cols:3 ()) ~per_switch:2)
  in
  let late =
    match Graph.hosts (N.graph t) with
    | a :: _ -> (a.switch, a.switch_port)
    | [] -> Alcotest.fail "a host expected"
  in
  Fabric.power_off_host (N.fabric t) late;
  N.start t;
  ignore (converge t);
  N.run_for t (Time.s 3);
  let switches = Graph.switches (N.graph t) in
  let loaded = List.map (fun s -> N.loaded_spec t s) switches in
  let report = Option.get (AP.complete_report (N.autopilot t 0)) in
  let shared () =
    match EC.tables (N.epoch_cache t) report with
    | Some a -> a
    | None -> Alcotest.fail "no live entry for the converged report"
  in
  let before = Array.map (fun sp -> Tables.copy ~switch:(Tables.switch sp) sp) (shared ()) in
  Fabric.power_on_host (N.fabric t) late;
  N.run_for t (Time.s 3);
  check_late_rows t late;
  List.iter2
    (fun s sp ->
      if s <> fst late then
        check_bool
          (Printf.sprintf "s%d table unchanged" s)
          true
          (Tables.equal_spec sp (N.loaded_spec t s)))
    switches loaded;
  Array.iteri
    (fun i sp ->
      check_bool
        (Printf.sprintf "shared table %d unchanged" i)
        true
        (Tables.equal_spec before.(i) sp))
    (shared ())

(* Table memory per switch must not grow with the network: every live
   table and the cache's tables share the epoch's pages.  Counts words
   reachable from all of them together, so a page shared between tables
   counts once. *)
let test_table_words_per_switch () =
  let words_per_switch rows cols =
    let t = make (B.attach_hosts (B.torus ~rows ~cols ()) ~per_switch:2) in
    ignore (converge t);
    let switches = Graph.switches (N.graph t) in
    let live =
      List.map (fun s -> FT.spec (AP.forwarding_table (N.autopilot t s))) switches
    in
    let report = Option.get (AP.complete_report (N.autopilot t 0)) in
    let cached =
      match EC.tables (N.epoch_cache t) report with
      | Some a -> Array.to_list a
      | None -> Alcotest.fail "no live entry for the converged report"
    in
    float_of_int (Obj.reachable_words (Obj.repr (Array.of_list (live @ cached))))
    /. float_of_int (List.length switches)
  in
  let small = words_per_switch 4 4 in
  let large = words_per_switch 8 8 in
  let ratio = large /. small and bar = 1.5 in
  if ratio > bar then
    Alcotest.failf
      "table words per switch: torus:4,4 %.0f, torus:8,8 %.0f, ratio %.2f (bar %.2f)"
      small large ratio bar

(* The convergence poll runs every 2 ms of simulated time while a
   network reconfigures, and nothing it reads changes between most polls,
   so on an unchanged converged network it must reuse its verdict, not
   walk the switches again (a walk costs ~24 words per switch).  Counted
   in this domain's minor words, which repeat exactly run to run. *)
let test_converged_words_per_switch () =
  let t = make (B.torus ~rows:8 ~cols:8 ()) in
  ignore (converge t);
  let switches = Graph.switch_count (N.graph t) and polls = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to polls do
    if not (N.converged t) then Alcotest.fail "torus:8,8 stopped converging"
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int (polls * switches)
  and bar = 1. in
  Printf.printf
    "Network.converged on torus:8,8: %.1f minor words per switch (bar %.0f)\n"
    words bar;
  if words > bar then
    Alcotest.failf
      "Network.converged on torus:8,8: %.1f minor words per switch (bar %.0f)"
      words bar

(* Every switch holds the network's one value of the complete report,
   the root's, and a [Complete] carrying it decodes, against the
   network's cache, to that value itself.  Checked by identity, after
   boot and after each half of a non-tree link flap. *)
let test_complete_report_shared () =
  let module Messages = Autonet_autopilot.Messages in
  let t = make (B.torus ~rows:4 ~cols:4 ()) in
  let g = N.graph t in
  let shared phase =
    ignore (converge t);
    let reports =
      List.map
        (fun s -> (s, Option.get (AP.complete_report (N.autopilot t s))))
        (Graph.switches g)
    in
    let root =
      List.find
        (fun s ->
          let ap = N.autopilot t s in
          Autonet_net.Uid.equal (AP.position ap).Spanning_tree.Position.root
            (AP.uid ap))
        (Graph.switches g)
    in
    let r0 = List.assoc root reports in
    if List.exists (fun (_, r) -> r != r0) reports then
      Alcotest.failf
        "%s: the %d switches hold %d distinct complete-report values (want \
         1, the root's)"
        phase (List.length reports)
        (List.length
           (List.fold_left
              (fun acc (_, r) -> if List.memq r acc then acc else r :: acc)
              [] reports));
    let epoch = AP.epoch (N.autopilot t root) in
    match
      Messages.of_packet ~epochs:(N.epoch_cache t)
        (Messages.to_packet (Messages.Complete { epoch; seq = 1; report = r0 }))
    with
    | Messages.Complete { report; _ } when report == r0 -> ()
    | _ ->
      Alcotest.failf
        "%s: a Complete carrying the root's report decodes to a copy" phase
  in
  shared "boot";
  let l = (Testlib.non_tree_link g).Graph.id in
  N.apply_fault t (F.Link_down l);
  shared "link down";
  N.apply_fault t (F.Link_up l);
  shared "link up"

(* The cache records one compute span per computation it runs and none
   for a lookup that finds the work done.  SRC boots and loses a non-tree
   link with telemetry on and a tick clock, watched one event at a time:
   every new complete report a switch holds is one lookup, from the
   report of its previous lookup.  A model of the cache counts the
   classifications those lookups ran: a tree root classifies from its own
   commit, and any switch's lookup classifies for a plan the first time
   its (report, previous report) pair is looked up (a root only on the
   delta path, where it applies the plan).  The full-build and apply
   spans must match the cache's own counters. *)
let test_cache_spans () =
  let module Engine = Autonet_sim.Engine in
  let module Timeline = Autonet_telemetry.Timeline in
  let tick =
    let c = ref 0 in
    fun () ->
      incr c;
      float_of_int !c *. 1e-6
  in
  let net =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:1L ~telemetry:`On
      ~span_clock:tick (B.src_service_lan ())
  in
  let n = Graph.switch_count (N.graph net) in
  let seen = Array.make n None and held = Array.make n None in
  let lookups = ref 0 and classifications = ref 0 and plans = ref [] in
  let plan report prev =
    if not (List.exists (fun (r, p) -> r == report && p == prev) !plans)
    then begin
      plans := (report, prev) :: !plans;
      incr classifications
    end
  in
  let observe () =
    for s = 0 to n - 1 do
      let ap = N.autopilot net s in
      let cur = AP.complete_report ap in
      if cur != seen.(s) then begin
        seen.(s) <- cur;
        match cur with
        | None -> ()
        | Some report ->
          incr lookups;
          (match held.(s) with
          | Some prev when Delta.enabled () ->
            let g = Topology_report.to_graph report in
            let me = Option.get (Graph.switch_of_uid g (AP.uid ap)) in
            if Spanning_tree.root (Spanning_tree.compute g ~member:me) = me
            then begin
              incr classifications;
              if Option.is_some (AP.delta_spec ap) then plan report prev
            end
            else plan report prev
          | Some _ | None -> ());
          held.(s) <- Some report
      end
    done
  in
  let settle () =
    let deadline = Time.add (N.now net) (Time.s 60) in
    while not (N.converged net) do
      if N.now net >= deadline then Alcotest.fail "network did not converge";
      Engine.run (N.engine net) ~until:deadline ~max_events:1;
      observe ()
    done
  in
  N.start net;
  settle ();
  let boot_spans = List.length (Timeline.spans (Option.get (N.timeline net))) in
  N.apply_fault net
    (F.Link_down (Testlib.non_tree_link (N.graph net)).Graph.id);
  settle ();
  let tl = Option.get (N.timeline net) in
  let spans = Timeline.spans tl in
  let named name =
    List.length (List.filter (fun sp -> sp.Timeline.sp_name = name) spans)
  in
  let st = EC.stats (N.epoch_cache net) in
  Printf.printf
    "%d lookups, %d spans (%d at boot): %d full builds, %d classifications, \
     %d applies\n"
    !lookups (List.length spans) boot_spans (named "full_build")
    (named "delta_classify") (named "delta_apply");
  check_int "every lookup observed" st.EC.lookups !lookups;
  check_int "a span per full build" st.EC.fulls (named "full_build");
  check_int "a span per apply" st.EC.deltas (named "delta_apply");
  check_int "a span per classification" !classifications
    (named "delta_classify");
  check_int "no other span" (List.length spans)
    (st.EC.fulls + st.EC.deltas + !classifications);
  check_bool "the failure took the delta path" true (st.EC.deltas > 0);
  (* Stamped with a switch and an epoch that switch had entered. *)
  let entered =
    List.filter_map
      (fun (m : Timeline.mark) ->
        match m.m_kind with
        | Timeline.Epoch_start _ -> Some (m.m_tid, m.m_epoch, m.m_time)
        | _ -> None)
      (Timeline.marks tl)
  in
  List.iter
    (fun (sp : Timeline.span) ->
      if
        not
          (List.exists
             (fun (tid, epoch, time) ->
               tid = sp.sp_tid && epoch = sp.sp_epoch && time <= sp.sp_time)
             entered)
      then
        Alcotest.failf "%s span at %a: switch %d never entered epoch %Ld"
          sp.sp_name Time.pp sp.sp_time sp.sp_tid sp.sp_epoch)
    spans

(* A report equal to a live entry's but held as another value (a root
   whose new epoch rebuilt a topology some switch still commits to)
   finds that entry, and the outcome hands back the entry's value for
   the switch to keep. *)
let test_equal_report_gets_entry_value () =
  let g = (B.torus ~rows:3 ~cols:3 ()).B.graph in
  let epochs = EC.create () in
  let finish report s =
    match
      EC.finish epochs report ~uid:(Graph.uid g s) ~root:(s = 0) ~prev:None
    with
    | Some (o, _) -> o.EC.report
    | None -> Alcotest.fail "the report describes every switch"
  in
  let first = Testlib.report_of_graph g in
  let second = Testlib.report_of_graph g in
  check_bool "registered with its own value" true (finish first 0 == first);
  check_bool "an equal value gets the entry's" true (finish second 1 == first)

(* A [Complete] whose report no switch could build ([max_ports] 0) is
   malformed input: the receiver drops and counts it, and the network
   runs on as it was. *)
let test_malformed_complete_dropped () =
  let module Messages = Autonet_autopilot.Messages in
  let t =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:1L ~telemetry:`On
      (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:1)
  in
  N.start t;
  ignore (converge t);
  let g = N.graph t in
  let malformed () =
    Autonet_telemetry.Metrics.counter_value (N.telemetry_snapshot t)
      "autopilot.malformed_packets"
  in
  let before = malformed () in
  let epoch = Epoch.(next (next (next (AP.epoch (N.autopilot t 0))))) in
  let report =
    Topology_report.singleton ~max_ports:0
      (Topology_report.switch_desc ~uid:(Graph.uid g 0) ~proposed_number:1
         ~max_ports:0 [])
  in
  (match Graph.neighbors g 0 with
  | (_, _, peer, peer_port) :: _ ->
    Autonet_autopilot.Fabric.switch_send (N.fabric t) ~from:peer
      ~port:peer_port
      (Messages.to_packet (Messages.Complete { epoch; seq = 1; report }))
  | [] -> Alcotest.fail "switch 0 has no neighbour");
  N.run_for t (Time.s 1);
  check_int "counted as malformed" (before + 1) (malformed ());
  check_bool "still converged" true (N.converged t);
  check_bool "reference" true (N.verify_against_reference t)

(* A well-formed Stable_report of the current epoch that contradicts what
   the root holds — the root's own UID described differently, or another
   [max_ports] — must be dropped on arrival and counted as malformed,
   not merged into the root's report (where the conflict aborted the
   whole simulation). *)
let test_conflicting_child_report_dropped () =
  let module Messages = Autonet_autopilot.Messages in
  let t =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:1L ~telemetry:`On
      (B.attach_hosts (B.torus ~rows:3 ~cols:3 ()) ~per_switch:1)
  in
  N.start t;
  ignore (converge t);
  let g = N.graph t in
  let root = 0 and uid = Graph.uid g in
  let child, child_port =
    match
      List.find_opt
        (fun (_, _, peer, _) ->
          Autonet_net.Uid.equal (AP.position (N.autopilot t peer)).parent
            (uid root))
        (Graph.neighbors g root)
    with
    | Some (_, _, peer, peer_port) -> (peer, peer_port)
    | None -> Alcotest.fail "the root has no tree child"
  in
  let malformed () =
    Autonet_telemetry.Metrics.counter_value (N.telemetry_snapshot t)
      "autopilot.malformed_packets"
  in
  let lone ~max_ports s =
    Topology_report.singleton ~max_ports
      (Topology_report.switch_desc ~uid:(uid s) ~proposed_number:1 ~max_ports
         [])
  in
  let mp = Graph.max_ports g in
  List.iter
    (fun (what, report) ->
      let before = malformed () in
      let epoch = AP.epoch (N.autopilot t root) in
      Autonet_autopilot.Fabric.switch_send (N.fabric t) ~from:child
        ~port:child_port
        (Messages.to_packet (Messages.Stable_report { epoch; seq = 1; report }));
      N.run_for t (Time.s 1);
      check_int (what ^ ": counted as malformed") (before + 1) (malformed ());
      check_bool (what ^ ": still converged") true (N.converged t);
      check_bool (what ^ ": reference") true (N.verify_against_reference t))
    [ ("root described without ports", lone ~max_ports:mp root);
      ("different max_ports", lone ~max_ports:(mp - 1) child) ]

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
          Alcotest.test_case "partition and heal" `Quick
            (test_partition_and_heal (B.ring ~n:6 ()) ~side:(fun s -> s <= 2)
               ~cut_links:2);
          Alcotest.test_case "torus partition and heal" `Quick
            (test_partition_and_heal (B.torus ~rows:4 ~cols:4 ())
               ~side:(fun s -> s < 8) ~cut_links:8);
          Alcotest.test_case "switch crash" `Quick test_switch_crash;
          Alcotest.test_case "root crash" `Quick test_root_crash ] );
      ( "protocol",
        [ Alcotest.test_case "addresses stable" `Quick
            test_short_addresses_stable_across_epochs;
          Alcotest.test_case "flapping bounded" `Slow
            test_flapping_link_bounded_reconfigs;
          Alcotest.test_case "epochs monotonic" `Quick test_epochs_monotonic;
          Alcotest.test_case "loop links excluded" `Quick test_loop_link_excluded;
          Alcotest.test_case "converged matches the reference" `Quick
            test_converged_matches_reference;
          Alcotest.test_case "host ports classified" `Quick
            test_host_ports_classified;
          Alcotest.test_case "loaded spec matches rows" `Quick
            test_loaded_spec_matches_rows;
          Alcotest.test_case "merged log chronological" `Quick
            test_merged_log_is_chronological;
          Alcotest.test_case "preset ladder" `Slow test_reconfig_presets_ladder;
          Alcotest.test_case "malformed complete dropped" `Quick
            test_malformed_complete_dropped;
          Alcotest.test_case "conflicting child report dropped" `Quick
            test_conflicting_child_report_dropped ] );
      ( "cache",
        [ Alcotest.test_case "torus switches follow their own chain" `Quick
            (test_cache_replays_own_chain (B.torus ~rows:4 ~cols:4 ()));
          Alcotest.test_case "src switches follow their own chain" `Quick
            (test_cache_replays_own_chain (B.src_service_lan ()));
          Alcotest.test_case "one computation per epoch" `Quick
            test_cache_work_counter;
          Alcotest.test_case "late host edits only its copy" `Quick
            test_late_host_edits_only_its_copy;
          Alcotest.test_case "table words per switch stay flat" `Quick
            test_table_words_per_switch;
          Alcotest.test_case "complete report shared" `Quick
            test_complete_report_shared;
          Alcotest.test_case "converged allocates little per switch" `Quick
            test_converged_words_per_switch;
          Alcotest.test_case "one span per computation" `Quick
            test_cache_spans;
          Alcotest.test_case "equal report gets the entry's value" `Quick
            test_equal_report_gets_entry_value ] );
      ( "soak",
        [ Alcotest.test_case "twenty random faults" `Slow test_multi_fault_soak ] );
      ( "random",
        [ QCheck_alcotest.to_alcotest random_topology_converges;
          QCheck_alcotest.to_alcotest random_fault_converges ] ) ]

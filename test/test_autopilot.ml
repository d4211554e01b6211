(* Unit tests for the Autopilot building blocks: parameters, skeptics, port
   states, protocol message codecs and event logs. *)

open Autonet_net
open Autonet_core
open Autonet_autopilot
module Time = Autonet_sim.Time

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let uid = Uid.of_int

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_presets () =
  check_bool "naive" true (Params.preset "naive" = Some Params.naive);
  check_bool "tuned" true (Params.preset "tuned" = Some Params.tuned);
  check_bool "fast" true (Params.preset "fast" = Some Params.fast);
  check_bool "unknown" true (Params.preset "bogus" = None);
  (* The ladder of the paper: each regime strictly faster to process. *)
  check_bool "ladder" true
    (Params.fast.Params.processing_delay < Params.tuned.Params.processing_delay
    && Params.tuned.Params.processing_delay < Params.naive.Params.processing_delay)

let test_params_round_to_timer () =
  let p = Params.tuned in
  let r = p.Params.timer_resolution in
  check_int "round up" (2 * r) (Params.round_to_timer p (r + 1));
  check_int "exact" r (Params.round_to_timer p r);
  check_int "minimum one tick" r (Params.round_to_timer p 0)

(* ------------------------------------------------------------------ *)
(* Skeptic *)

let sk_params =
  { Params.initial_hold = Time.ms 100;
    max_hold = Time.s 10;
    backoff_factor = 2;
    decay_good = Time.s 1 }

let test_skeptic_backoff () =
  let s = Skeptic.create sk_params in
  check_int "initial" (Time.ms 100) (Skeptic.required_hold s);
  Skeptic.note_relapse s ~now:(Time.ms 10);
  check_int "doubled" (Time.ms 200) (Skeptic.required_hold s);
  Skeptic.note_relapse s ~now:(Time.ms 20);
  check_int "doubled again" (Time.ms 400) (Skeptic.required_hold s)

let test_skeptic_cap () =
  let s = Skeptic.create sk_params in
  for i = 1 to 20 do
    Skeptic.note_relapse s ~now:(Time.ms i)
  done;
  check_int "capped" (Time.s 10) (Skeptic.required_hold s)

let test_skeptic_decay () =
  let s = Skeptic.create sk_params in
  Skeptic.note_relapse s ~now:(Time.ms 10);
  Skeptic.note_relapse s ~now:(Time.ms 20);
  (* 400 ms hold now; a long healthy interval should halve it (at least
     once) before the next backoff. *)
  Skeptic.note_relapse s ~now:(Time.s 3);
  (* healthy ~3 s = 3 decay periods: hold decayed to >= initial then
     doubled. *)
  check_bool "decayed" true (Skeptic.required_hold s <= Time.ms 400)

let test_skeptic_reset () =
  let s = Skeptic.create sk_params in
  Skeptic.note_relapse s ~now:(Time.ms 10);
  Skeptic.reset s;
  check_int "reset" (Time.ms 100) (Skeptic.required_hold s)

let test_skeptic_never_below_initial () =
  let s = Skeptic.create sk_params in
  Skeptic.note_healthy_since s ~promoted_at:Time.zero ~now:(Time.s 100);
  check_int "floor" (Time.ms 100) (Skeptic.required_hold s)

(* Property: relapses spaced closer than [decay_good] earn no health
   credit, so the hold-down never shrinks between them. *)
let skeptic_monotone_qcheck =
  QCheck.Test.make ~name:"hold monotone under rapid relapses" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (int_bound 999))
    (fun gaps ->
      let s = Skeptic.create sk_params in
      let now = ref Time.zero in
      List.for_all
        (fun gap ->
          let before = Skeptic.required_hold s in
          now := Time.add !now (Time.ms gap);
          Skeptic.note_relapse s ~now:!now;
          Skeptic.required_hold s >= before)
        gaps)

(* Property: whatever the relapse spacing (including long healthy runs
   that decay the hold), the hold-down never exceeds the cap and never
   drops below the initial value. *)
let skeptic_bounded_qcheck =
  let cap = Stdlib.max sk_params.Params.initial_hold sk_params.Params.max_hold in
  QCheck.Test.make ~name:"hold bounded by cap and floor" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (int_bound 30_000))
    (fun gaps ->
      let s = Skeptic.create sk_params in
      let now = ref Time.zero in
      List.for_all
        (fun gap ->
          now := Time.add !now (Time.ms gap);
          Skeptic.note_relapse s ~now:!now;
          let h = Skeptic.required_hold s in
          h <= cap && h >= sk_params.Params.initial_hold)
        gaps)

(* Property: after the hold has been backed off, exactly one [decay_good]
   interval of health halves it (down to the initial floor). *)
let skeptic_halving_qcheck =
  QCheck.Test.make ~name:"one decay interval halves the hold" ~count:50
    QCheck.(int_range 1 10)
    (fun relapses ->
      let s = Skeptic.create sk_params in
      for i = 1 to relapses do
        Skeptic.note_relapse s ~now:(Time.ms i)
      done;
      let built = Skeptic.required_hold s in
      let promoted_at = Time.ms relapses in
      Skeptic.note_healthy_since s ~promoted_at
        ~now:(Time.add promoted_at sk_params.Params.decay_good);
      Skeptic.required_hold s
      = Stdlib.max (built / 2) sk_params.Params.initial_hold)

(* ------------------------------------------------------------------ *)
(* Port states *)

let test_port_state_transitions () =
  let open Port_state in
  check_bool "dead->checking" true (legal_transition Dead Checking);
  check_bool "checking->host" true (legal_transition Checking Host);
  check_bool "checking->who" true (legal_transition Checking Switch_who);
  check_bool "who->good" true (legal_transition Switch_who Switch_good);
  check_bool "who->loop" true (legal_transition Switch_who Switch_loop);
  check_bool "good->who" true (legal_transition Switch_good Switch_who);
  check_bool "good->dead" true (legal_transition Switch_good Dead);
  check_bool "host->dead" true (legal_transition Host Dead);
  check_bool "no dead->host" false (legal_transition Dead Host);
  check_bool "no dead->good" false (legal_transition Dead Switch_good);
  check_bool "no host->who" false (legal_transition Host Switch_who);
  check_bool "no checking->good" false (legal_transition Checking Switch_good)

let test_port_state_reconfig_triggers () =
  let open Port_state in
  check_bool "into good" true
    (triggers_reconfiguration ~from:Switch_who ~into:Switch_good);
  check_bool "out of good" true
    (triggers_reconfiguration ~from:Switch_good ~into:Dead);
  check_bool "host changes do not" false
    (triggers_reconfiguration ~from:Checking ~into:Host);
  check_bool "dead->checking does not" false
    (triggers_reconfiguration ~from:Dead ~into:Checking)

(* ------------------------------------------------------------------ *)
(* Messages *)

let sample_report =
  let d1 =
    Topology_report.switch_desc ~uid:(uid 0x11) ~proposed_number:1
      ~max_ports:12
      [ (1, Topology_report.Switch_link { peer = uid 0x22; peer_port = 2 });
        (5, Topology_report.Host_port) ]
  in
  let d2 =
    Topology_report.switch_desc ~uid:(uid 0x22) ~proposed_number:2
      ~max_ports:12
      [ (2, Topology_report.Switch_link { peer = uid 0x11; peer_port = 1 }) ]
  in
  Topology_report.merge
    (Topology_report.singleton ~max_ports:12 d1)
    (Topology_report.singleton ~max_ports:12 d2)

let roundtrip msg =
  let decoded = Messages.decode (Messages.encode msg) in
  check_bool
    (Format.asprintf "roundtrip %a" Messages.pp msg)
    true
    (Messages.encode decoded = Messages.encode msg)

let test_message_roundtrips () =
  let e = Epoch.next (Epoch.next Epoch.zero) in
  let pos =
    { Spanning_tree.Position.root = uid 5;
      level = 3;
      parent = uid 9;
      parent_port = 7 }
  in
  roundtrip (Messages.Tree_position { epoch = e; seq = 42; position = pos });
  roundtrip (Messages.Tree_ack { epoch = e; seq = 42; now_my_parent = true });
  roundtrip (Messages.Tree_ack { epoch = e; seq = 1; now_my_parent = false });
  roundtrip (Messages.Stable_report { epoch = e; seq = 9; report = sample_report });
  roundtrip (Messages.Unstable_notice { epoch = e; seq = 10 });
  roundtrip (Messages.Version_offer { version = 7 });
  roundtrip (Messages.Report_ack { epoch = e; seq = 9 });
  roundtrip (Messages.Complete { epoch = e; seq = 11; report = sample_report });
  roundtrip (Messages.Complete_ack { epoch = e; seq = 11 });
  roundtrip
    (Messages.Conn_test { token = 7; src_uid = uid 3; src_port = 4; sw_version = 2 });
  roundtrip
    (Messages.Conn_reply
       { token = 7; orig_uid = uid 3; orig_port = 4; responder_uid = uid 8;
         responder_port = 2; sw_version = 3 });
  roundtrip (Messages.Host_query { token = 1; host_uid = uid 0x42 });
  roundtrip
    (Messages.Host_addr { token = 1; address = Short_address.of_int 0x123 });
  roundtrip
    (Messages.Srp_request
       { route = [ 1; 2; 3 ]; reply_route = [ 4 ]; request = Messages.Get_state });
  roundtrip
    (Messages.Srp_request
       { route = []; reply_route = []; request = Messages.Get_log { max_entries = 5 } });
  roundtrip
    (Messages.Srp_response
       { route = [ 9 ];
         response =
           Messages.State
             { uid = uid 1;
               epoch = e;
               configured = true;
               port_states = [ (1, Port_state.Switch_good); (2, Port_state.Dead) ] } });
  roundtrip
    (Messages.Srp_response
       { route = [];
         response = Messages.Log_entries [ (123, "hello"); (456, "world") ] });
  roundtrip
    (Messages.Srp_response { route = []; response = Messages.Topology sample_report });
  roundtrip (Messages.Srp_response { route = []; response = Messages.No_data })

let test_message_packet_types () =
  let e = Epoch.zero in
  check_bool "reconfig type" true
    (Packet.equal_typ Packet.Reconfiguration
       (Messages.packet_type (Messages.Report_ack { epoch = e; seq = 0 })));
  check_bool "conn type" true
    (Packet.equal_typ Packet.Connectivity
       (Messages.packet_type
          (Messages.Conn_test
             { token = 0; src_uid = uid 1; src_port = 1; sw_version = 1 })));
  check_bool "srp type" true
    (Packet.equal_typ Packet.Srp
       (Messages.packet_type
          (Messages.Srp_request { route = []; reply_route = []; request = Messages.Get_state })))

let test_message_epoch_of () =
  let e = Epoch.next Epoch.zero in
  check_bool "reconfig has epoch" true
    (Messages.epoch_of (Messages.Report_ack { epoch = e; seq = 1 }) = Some e);
  check_bool "conn has none" true
    (Messages.epoch_of
       (Messages.Conn_test
          { token = 0; src_uid = uid 1; src_port = 1; sw_version = 1 })
    = None)

let test_report_size_grows_message () =
  (* Shipping a bigger subtree costs more bytes on the wire: the basis of
     the reconfiguration-time scaling. *)
  let small =
    Messages.wire_size
      (Messages.Stable_report { epoch = Epoch.zero; seq = 1; report = sample_report })
  in
  let big_report =
    List.fold_left
      (fun acc i ->
        let d =
          Topology_report.switch_desc ~uid:(uid (0x1000 + i)) ~proposed_number:i
            ~max_ports:12 []
        in
        Topology_report.merge acc (Topology_report.singleton ~max_ports:12 d))
      sample_report
      (List.init 20 (fun i -> i + 1))
  in
  let big =
    Messages.wire_size
      (Messages.Stable_report { epoch = Epoch.zero; seq = 1; report = big_report })
  in
  check_bool "bigger" true (big > small + 100)

(* ------------------------------------------------------------------ *)
(* Event log *)

let test_event_log_basic () =
  let l = Event_log.create ~clock_skew:(Time.us 50) () in
  Event_log.log l ~epoch:(Epoch.next Epoch.zero) ~now:(Time.ms 1)
    (Event.Generic "one");
  Event_log.logf l ~epoch:Epoch.zero ~now:(Time.ms 2) "two %d" 2;
  check_int "length" 2 (Event_log.length l);
  check_int "capacity" 512 (Event_log.capacity l);
  match Event_log.entries l with
  | [ e1; e2 ] ->
    check_int "skewed timestamp" (Time.ms 1 + Time.us 50) e1.Event_log.local_time;
    check_bool "epoch stored" true
      (Epoch.equal e1.Event_log.epoch (Epoch.next Epoch.zero));
    Alcotest.(check string) "fmt" "two 2" (Event_log.message e2)
  | _ -> Alcotest.fail "expected 2 entries"

let test_event_log_wraps () =
  let l = Event_log.create ~capacity:4 ~clock_skew:Time.zero () in
  for i = 1 to 10 do
    Event_log.logf l ~epoch:Epoch.zero ~now:(Time.ms i) "%d" i
  done;
  check_int "capacity" 4 (Event_log.capacity l);
  check_int "length" 4 (Event_log.length l);
  check_int "total" 10 (Event_log.total_logged l);
  Alcotest.(check (list string)) "last four" [ "7"; "8"; "9"; "10" ]
    (List.map Event_log.message (Event_log.entries l))

(* The circular buffer's boundary: exactly at capacity nothing is lost
   yet; one entry past it evicts exactly the oldest; a full second lap
   retains the newest [capacity] with the counters still exact. *)
let test_event_log_boundaries () =
  let cap = 8 in
  let msgs l = List.map Event_log.message (Event_log.entries l) in
  let expect_range lo hi = List.init (hi - lo + 1) (fun i -> string_of_int (lo + i)) in
  let filled n =
    let l = Event_log.create ~capacity:cap ~clock_skew:Time.zero () in
    for i = 1 to n do
      Event_log.logf l ~epoch:Epoch.zero ~now:(Time.ms i) "%d" i
    done;
    l
  in
  (* Exactly at capacity. *)
  let l = filled cap in
  check_int "at cap: length" cap (Event_log.length l);
  check_int "at cap: total" cap (Event_log.total_logged l);
  Alcotest.(check (list string)) "at cap: all retained"
    (expect_range 1 cap) (msgs l);
  (* One past capacity: the oldest entry (and only it) is gone. *)
  let l = filled (cap + 1) in
  check_int "cap+1: length" cap (Event_log.length l);
  check_int "cap+1: total" (cap + 1) (Event_log.total_logged l);
  Alcotest.(check (list string)) "cap+1: oldest evicted"
    (expect_range 2 (cap + 1)) (msgs l);
  (* A full second lap. *)
  let l = filled (2 * cap) in
  check_int "2*cap: length" cap (Event_log.length l);
  check_int "2*cap: total" (2 * cap) (Event_log.total_logged l);
  Alcotest.(check (list string)) "2*cap: newest lap retained"
    (expect_range (cap + 1) (2 * cap)) (msgs l)

let test_event_log_merge_normalizes () =
  (* Two switches with different skews log the same instants; the merged
     log must interleave by true time. *)
  let a = Event_log.create ~clock_skew:(Time.ms 5) () in
  let b = Event_log.create ~clock_skew:(Time.ms (-3)) () in
  Event_log.log a ~epoch:Epoch.zero ~now:(Time.ms 10) (Event.Generic "a1");
  Event_log.log b ~epoch:Epoch.zero ~now:(Time.ms 11) (Event.Generic "b1");
  Event_log.log a ~epoch:Epoch.zero ~now:(Time.ms 12) (Event.Generic "a2");
  let merged = Event_log.merge [ ("a", a); ("b", b) ] in
  Alcotest.(check (list string)) "order" [ "a1"; "b1"; "a2" ]
    (List.map (fun (_, _, m) -> m) merged);
  List.iter2
    (fun (ts, _, _) expect -> check_int "normalized" expect ts)
    merged
    [ Time.ms 10; Time.ms 11; Time.ms 12 ]

let test_event_log_merge_skew_reorders () =
  (* Skews large enough to invert the raw timestamp order: sorting on the
     local clocks would put [late] first; normalizing restores true-time
     order.  This is the anomaly the paper's offline merge tool existed to
     fix. *)
  let a = Event_log.create ~clock_skew:(Time.ms 50) () in
  let b = Event_log.create ~clock_skew:(Time.ms (-50)) () in
  Event_log.log a ~epoch:Epoch.zero ~now:(Time.ms 10) (Event.Generic "early");
  Event_log.log b ~epoch:Epoch.zero ~now:(Time.ms 30) (Event.Generic "late");
  (match Event_log.entries a, Event_log.entries b with
  | [ ea ], [ eb ] ->
    check_bool "raw order inverted" true
      (ea.Event_log.local_time > eb.Event_log.local_time)
  | _ -> Alcotest.fail "expected one entry per log");
  Alcotest.(check (list string)) "true-time order" [ "early"; "late" ]
    (List.map (fun (_, _, m) -> m) (Event_log.merge [ ("a", a); ("b", b) ]))

let test_event_log_merge_ties_stable () =
  (* Entries that normalize to the same instant keep the order of the
     log list passed to [merge], whatever their skews. *)
  let a = Event_log.create ~clock_skew:(Time.ms 7) () in
  let b = Event_log.create ~clock_skew:(Time.ms (-2)) () in
  let c = Event_log.create ~clock_skew:Time.zero () in
  Event_log.log a ~epoch:Epoch.zero ~now:(Time.ms 10) (Event.Generic "a");
  Event_log.log b ~epoch:Epoch.zero ~now:(Time.ms 10) (Event.Generic "b");
  Event_log.log c ~epoch:Epoch.zero ~now:(Time.ms 10) (Event.Generic "c");
  let names logs = List.map (fun (_, n, _) -> n) (Event_log.merge logs) in
  Alcotest.(check (list string)) "list order" [ "a"; "b"; "c" ]
    (names [ ("a", a); ("b", b); ("c", c) ]);
  Alcotest.(check (list string)) "reversed list order" [ "c"; "b"; "a" ]
    (names [ ("c", c); ("b", b); ("a", a) ]);
  List.iter
    (fun (ts, _, _) -> check_int "tie instant" (Time.ms 10) ts)
    (Event_log.merge [ ("a", a); ("b", b); ("c", c) ])

(* ------------------------------------------------------------------ *)
(* Topology report closure *)

let test_report_closure () =
  check_bool "closed" true (Topology_report.closed sample_report);
  (* A report missing one endpoint of a link is not closed. *)
  let dangling =
    Topology_report.singleton ~max_ports:12
      (Topology_report.switch_desc ~uid:(uid 0x11) ~proposed_number:1
         ~max_ports:12
         [ (1, Topology_report.Switch_link { peer = uid 0x99; peer_port = 2 }) ])
  in
  check_bool "dangling not closed" false (Topology_report.closed dangling)

let () =
  Alcotest.run "autopilot-units"
    [ ( "params",
        [ Alcotest.test_case "presets" `Quick test_params_presets;
          Alcotest.test_case "round to timer" `Quick test_params_round_to_timer ] );
      ( "skeptic",
        [ Alcotest.test_case "backoff" `Quick test_skeptic_backoff;
          Alcotest.test_case "cap" `Quick test_skeptic_cap;
          Alcotest.test_case "decay" `Quick test_skeptic_decay;
          Alcotest.test_case "reset" `Quick test_skeptic_reset;
          Alcotest.test_case "floor" `Quick test_skeptic_never_below_initial;
          QCheck_alcotest.to_alcotest skeptic_monotone_qcheck;
          QCheck_alcotest.to_alcotest skeptic_bounded_qcheck;
          QCheck_alcotest.to_alcotest skeptic_halving_qcheck ] );
      ( "port_state",
        [ Alcotest.test_case "transitions" `Quick test_port_state_transitions;
          Alcotest.test_case "reconfig triggers" `Quick
            test_port_state_reconfig_triggers ] );
      ( "messages",
        [ Alcotest.test_case "roundtrips" `Quick test_message_roundtrips;
          Alcotest.test_case "packet types" `Quick test_message_packet_types;
          Alcotest.test_case "epoch_of" `Quick test_message_epoch_of;
          Alcotest.test_case "report size" `Quick test_report_size_grows_message ] );
      ( "event_log",
        [ Alcotest.test_case "basic" `Quick test_event_log_basic;
          Alcotest.test_case "wraps" `Quick test_event_log_wraps;
          Alcotest.test_case "wrap boundaries" `Quick
            test_event_log_boundaries;
          Alcotest.test_case "merge normalizes" `Quick
            test_event_log_merge_normalizes;
          Alcotest.test_case "merge undoes skew inversion" `Quick
            test_event_log_merge_skew_reorders;
          Alcotest.test_case "merge ties stable" `Quick
            test_event_log_merge_ties_stable ] );
      ( "report_closure",
        [ Alcotest.test_case "closure" `Quick test_report_closure ] ) ]

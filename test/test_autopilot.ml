(* Unit tests for the Autopilot building blocks: parameters, skeptics, the
   fabric's port status, port states, protocol message codecs and event
   logs. *)

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
(* Fabric status table *)

let status_name = function
  | Fabric.Clean -> "clean"
  | Fabric.Errors -> "errors"
  | Fabric.Idhy -> "idhy"
  | Fabric.Host -> "host"

(* What the status sampler reads for every cable condition: switch 0's
   ports 1-8 each reach one case, port 9 is uncabled.  Host 0xA0 is
   dual-homed, primary on s0 port 7 and alternate on s1 port 4. *)
let test_fabric_status_table () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 0x10) in
  let s1 = Graph.add_switch g ~uid:(uid 0x11) in
  let s2 = Graph.add_switch g ~uid:(uid 0x12) in
  ignore (Graph.connect g (s0, 1) (s1, 1));
  let failed = Graph.connect g (s0, 2) (s1, 2) in
  ignore (Graph.connect g (s0, 3) (s1, 3));
  ignore (Graph.connect g (s0, 4) (s2, 1));
  ignore (Graph.connect g (s0, 5) (s0, 6));
  Graph.attach_host g ~host_uid:(uid 0xA0) ~host_port:0 (s0, 7);
  Graph.attach_host g ~host_uid:(uid 0xA0) ~host_port:1 (s1, 4);
  Graph.attach_host g ~host_uid:(uid 0xA1) ~host_port:0 (s0, 8);
  let f =
    Fabric.create ~engine:(Autonet_sim.Engine.create ()) ~graph:g
      ~params:Params.fast
  in
  Fabric.fail_link f failed;
  Fabric.set_port_flow f s1 ~port:3 Fabric.Flow_idhy;
  Fabric.power_off_switch f s2;
  (* A looped port reads clean even while its other end sends idhy, as
     every port does at boot. *)
  Fabric.set_port_flow f s0 ~port:6 Fabric.Flow_idhy;
  Fabric.power_off_host f (s0, 8);
  let expect cases =
    List.iter
      (fun (what, (s, port), want) ->
        Alcotest.(check string) what (status_name want)
          (status_name (Fabric.sample_port f s ~port)))
      cases
  in
  expect
    [ ("uncabled", (s0, 9), Fabric.Errors);
      ("failed link", (s0, 2), Fabric.Errors);
      ("failed link, far end", (s1, 2), Fabric.Errors);
      ("live link", (s0, 1), Fabric.Clean);
      ("peer sends idhy", (s0, 3), Fabric.Idhy);
      ("powered-off peer reflects", (s0, 4), Fabric.Clean);
      ("loop link", (s0, 5), Fabric.Clean);
      ("host, primary port", (s0, 7), Fabric.Host);
      ("host, alternate port", (s1, 4), Fabric.Host);
      ("powered-off host", (s0, 8), Fabric.Clean) ];
  Fabric.repair_link f failed;
  Fabric.set_port_flow f s1 ~port:3 Fabric.Flow_normal;
  Fabric.power_on_host f (s0, 8);
  expect
    [ ("repaired link", (s0, 2), Fabric.Clean);
      ("peer back to normal flow", (s0, 3), Fabric.Clean);
      ("host powered on", (s0, 8), Fabric.Host) ]

(* Link ids outside the graph's range are refused, naming the id. *)
let test_fabric_link_range () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 0x10) in
  let s1 = Graph.add_switch g ~uid:(uid 0x11) in
  let l = Graph.connect g (s0, 1) (s1, 1) in
  let f =
    Fabric.create ~engine:(Autonet_sim.Engine.create ()) ~graph:g
      ~params:Params.fast
  in
  let beyond = Graph.max_link_id g + 1 in
  List.iter
    (fun id ->
      Alcotest.check_raises
        (Printf.sprintf "fail link %d" id)
        (Invalid_argument (Printf.sprintf "Fabric.fail_link: no link %d" id))
        (fun () -> Fabric.fail_link f id);
      Alcotest.check_raises
        (Printf.sprintf "repair link %d" id)
        (Invalid_argument (Printf.sprintf "Fabric.repair_link: no link %d" id))
        (fun () -> Fabric.repair_link f id);
      check_bool (Printf.sprintf "link %d reads live" id) false
        (Fabric.link_failed f id))
    [ -1; beyond; beyond + 100 ];
  Fabric.fail_link f l;
  Fabric.fail_link f l;
  check_bool "failed twice" true (Fabric.link_failed f l);
  Fabric.repair_link f l;
  check_bool "one repair undoes both" false (Fabric.link_failed f l)

(* A packet already on the wire when its link fails is lost; one sent
   after the repair arrives. *)
let test_fabric_in_flight_drop () =
  let g = Graph.create () in
  let s0 = Graph.add_switch g ~uid:(uid 0x10) in
  let s1 = Graph.add_switch g ~uid:(uid 0x11) in
  let l = Graph.connect g (s0, 1) (s1, 2) in
  let engine = Autonet_sim.Engine.create () in
  let f =
    Fabric.create ~engine ~graph:g ~params:Params.fast
  in
  let received = ref [] in
  Fabric.attach_switch f s1 ~rx:(fun ~port _ -> received := port :: !received);
  let packet = Messages.to_packet (Messages.Version_offer { version = 1 }) in
  Fabric.switch_send f ~from:s0 ~port:1 packet;
  (* Half way: the packet has left and not arrived. *)
  Autonet_sim.Engine.run engine ~until:(Time.ns 500);
  check_int "not yet delivered" 0 (List.length !received);
  Fabric.fail_link f l;
  Autonet_sim.Engine.run engine;
  check_int "dropped in flight" 0 (List.length !received);
  Fabric.repair_link f l;
  Fabric.switch_send f ~from:s0 ~port:1 packet;
  Autonet_sim.Engine.run engine;
  Alcotest.(check (list int)) "delivered after the repair" [ 2 ] !received;
  check_int "sent" 2 (Fabric.stats f).Fabric.packets_sent

(* The status sampler reads only ports whose state can act on an
   unchanged status until the fabric's status version moves, so every
   call that changes a status must move it.  On a converged torus:3,3
   with 2 hosts, each change below is applied on its own and the engine
   is stepped until the observing port leaves its state; the delays (and
   the transitions) are the ones a sampler reading every port at every
   tick produces.  Each change that only a version bump can reveal is
   set up so that no other bump comes first: the link failure and repair
   and the neighbour's forced-dead port; a neighbour whose ports were all
   still dead when it powered off coming back (no port's flow changes);
   a neighbour powering off while the observing port waits in s.checking
   for its idhy to stop; and a host powering on behind a port the sampler
   took for a reflecting cable.  A host powering off changes nothing the
   sampler acts on: its port stays in s.host. *)
let test_status_inputs_seen () =
  let module N = Autonet.Network in
  let module AP = Autopilot in
  let module Engine = Autonet_sim.Engine in
  let t =
    N.create ~params:Params.fast ~seed:1L
      (Autonet_topo.Builders.of_spec "torus:3,3" ~seed:1L ~hosts:2)
  in
  N.start t;
  let converge () =
    if N.run_until_converged t = None then Alcotest.fail "did not converge"
  in
  converge ();
  let g = N.graph t and f = N.fabric t in
  let a = 0 in
  let pa, link, b, pb = List.hd (Graph.neighbors g a) in
  let hp =
    (List.find (fun (h : Graph.host_attachment) -> h.switch = a) (Graph.hosts g))
      .switch_port
  in
  let state s port = AP.port_state (N.autopilot t s) ~port in
  let expect_state what s port want =
    if not (Port_state.equal (state s port) want) then
      Alcotest.failf "%s: s%d.p%d is %s, not %s" what s port
        (Port_state.to_string (state s port))
        (Port_state.to_string want)
  in
  (* Step the engine until [cond] holds, for at most 3 simulated
     seconds; whether it holds. *)
  let step_until cond =
    let deadline = Time.add (N.now t) (Time.s 3) in
    while (not (cond ())) && N.now t < deadline && Engine.step (N.engine t) do
      ()
    done;
    cond ()
  in
  let seen = ref [] in
  (* Apply [change], then step until s.port leaves its state. *)
  let observe what (s, port) change =
    let before = state s port and since = N.now t in
    change ();
    ignore (step_until (fun () -> not (Port_state.equal (state s port) before)));
    seen :=
      (if Port_state.equal (state s port) before then
         Printf.sprintf "%s: s%d.p%d stays %s" what s port
           (Port_state.to_string before)
       else
         Printf.sprintf "%s: s%d.p%d %s -> %s after %d ns" what s port
           (Port_state.to_string before)
           (Port_state.to_string (state s port))
           (Time.sub (N.now t) since))
      :: !seen
  in
  observe "link fails" (a, pa) (fun () -> Fabric.fail_link f link);
  converge ();
  observe "link repaired" (a, pa) (fun () -> Fabric.repair_link f link);
  converge ();
  observe "neighbour off" (a, pa) (fun () -> AP.power_off (N.autopilot t b));
  converge ();
  N.run_for t (Time.s 2);
  expect_state "reflecting cable" a pa Port_state.Switch_loop;
  observe "neighbour on" (a, pa) (fun () -> AP.start (N.autopilot t b));
  (* Off again while every port of [b] is still in s.dead: its next boot
     changes no port's flow. *)
  observe "neighbour off in probation" (a, pa) (fun () ->
      AP.power_off (N.autopilot t b));
  converge ();
  N.run_for t (Time.s 2);
  expect_state "reflecting cable again" a pa Port_state.Switch_loop;
  observe "neighbour on, all ports dead" (a, pa) (fun () ->
      AP.start (N.autopilot t b));
  (* [b]'s fresh skeptic lets pb through s.dead before [a]'s relapsed
     one: pb waits in s.checking while pa still sends idhy. *)
  if not (step_until (fun () -> Port_state.equal (state b pb) Port_state.Checking))
  then Alcotest.failf "s%d.p%d never reaches s.checking" b pb;
  N.run_for t (Time.ms 30);
  expect_state "waiting for idhy to stop" b pb Port_state.Checking;
  if Fabric.sample_port f b ~port:pb <> Fabric.Idhy then
    Alcotest.failf "s%d.p%d does not read idhy" b pb;
  observe "neighbour off, port checking" (b, pb) (fun () ->
      AP.power_off (N.autopilot t a));
  AP.start (N.autopilot t a);
  converge ();
  observe "host off" (a, hp) (fun () -> Fabric.power_off_host f (a, hp));
  AP.force_port_dead (N.autopilot t a) ~port:hp;
  N.run_for t (Time.s 2);
  expect_state "host port reflects" a hp Port_state.Switch_loop;
  observe "host on" (a, hp) (fun () -> Fabric.power_on_host f (a, hp));
  N.run_for t (Time.s 2);
  expect_state "host port" a hp Port_state.Host;
  observe "neighbour port forced dead" (a, pa) (fun () ->
      AP.force_port_dead (N.autopilot t b) ~port:pb);
  converge ();
  Alcotest.(check (list string))
    "first transitions"
    [ "link fails: s0.p1 s.switch.good -> s.dead after 7200000 ns";
      "link repaired: s0.p1 s.dead -> s.checking after 421200000 ns";
      "neighbour off: s0.p1 s.switch.good -> s.switch.who after 294404992 ns";
      "neighbour on: s0.p1 s.switch.loop -> s.dead after 6395008 ns";
      "neighbour off in probation: s0.p1 s.dead -> s.checking after 820800000 \
       ns";
      "neighbour on, all ports dead: s0.p1 s.switch.loop -> s.dead after \
       8800000 ns";
      "neighbour off, port checking: s1.p1 s.checking -> s.switch.who after \
       2400000 ns";
      "host off: s0.p5 stays s.host";
      "host on: s0.p5 s.switch.loop -> s.dead after 10800000 ns";
      "neighbour port forced dead: s0.p1 s.switch.good -> s.dead after 8800000 \
       ns" ]
    (List.rev !seen)

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

(* Encoding a report message copies the report's memoized bytes once,
   into a string of exactly the message's size: on the 256-switch torus
   the encode allocates that string plus a few words, where growing a
   buffer and copying it out again allocated about four times as much.
   [Gc.allocated_bytes] also takes in what other domains (the step-5
   pool's workers, once any case has started them) allocated, which only
   adds to a reading; every encode allocates the same bytes, so the
   least of several readings is the encode's own. *)
let test_encode_copies_report_once () =
  let topo =
    Autonet_topo.Builders.attach_hosts
      (Autonet_topo.Builders.torus ~rows:16 ~cols:16 ())
      ~per_switch:2
  in
  let report = Testlib.report_of_graph topo.Autonet_topo.Builders.graph in
  let bytes = String.length (Topology_report.wire report) in
  let msg = Messages.Complete { epoch = Epoch.zero; seq = 1; report } in
  ignore (Messages.encode msg);
  let measure () =
    let b0 = Gc.allocated_bytes () in
    let s = Sys.opaque_identity (Messages.encode msg) in
    (s, Gc.allocated_bytes () -. b0)
  in
  let s, first = measure () in
  let allocated =
    List.fold_left Float.min first (List.init 4 (fun _ -> snd (measure ())))
  in
  check_int "message length" (13 + bytes) (String.length s);
  let bar = float_of_int (String.length s + 256) in
  Printf.printf
    "messages: encoding a %d-byte Complete allocates %.0f bytes (bar %.0f, \
     OCaml %s)\n"
    (String.length s) allocated bar Sys.ocaml_version;
  if allocated > bar then
    Alcotest.failf
      "messages: encoding a %d-byte Complete allocates %.0f bytes (bar %.0f, \
       OCaml %s)"
      (String.length s) allocated bar Sys.ocaml_version

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
      ( "fabric",
        [ Alcotest.test_case "status table" `Quick test_fabric_status_table;
          Alcotest.test_case "link ids out of range" `Quick
            test_fabric_link_range;
          Alcotest.test_case "in-flight packet dropped" `Quick
            test_fabric_in_flight_drop ] );
      ( "port_state",
        [ Alcotest.test_case "transitions" `Quick test_port_state_transitions;
          Alcotest.test_case "reconfig triggers" `Quick
            test_port_state_reconfig_triggers ] );
      ( "messages",
        [ Alcotest.test_case "roundtrips" `Quick test_message_roundtrips;
          Alcotest.test_case "packet types" `Quick test_message_packet_types;
          Alcotest.test_case "epoch_of" `Quick test_message_epoch_of;
          Alcotest.test_case "report size" `Quick test_report_size_grows_message;
          Alcotest.test_case "encode copies a report once" `Quick
            test_encode_copies_report_once ] );
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
        [ Alcotest.test_case "closure" `Quick test_report_closure ] );
      ( "status_sampler",
        [ Alcotest.test_case "each status input is seen at the next tick"
            `Quick test_status_inputs_seen ] ) ]

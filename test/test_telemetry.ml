(* Telemetry subsystem tests: the metrics registry (counting, snapshots,
   merge), the JSON codec, the phase-timeline derivation and trace
   export, the causal view over the timeline, the Autopilot's single
   recording stream on a live network (flight recorders, timeline-only
   milestones), and the determinism contract — pool metric snapshots
   after a pooled table build must be byte-identical for any domain
   count. *)

open Autonet_core
module B = Autonet_topo.Builders
module Pool = Autonet_parallel.Pool
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline
module Causal = Autonet_telemetry.Causal
module Json = Autonet_telemetry.Json
module Time = Autonet_sim.Time
module N = Autonet.Network
module AP = Autonet_autopilot.Autopilot
module Event = Autonet_autopilot.Event
module Event_log = Autonet_autopilot.Event_log

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_counting () =
  let m = Metrics.create ~enabled:true () in
  let c = Metrics.counter m "c" in
  let g = Metrics.gauge m "g" in
  let h = Metrics.histogram m "h" ~bounds:[| 10; 100 |] in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.set_gauge g 7;
  Metrics.set_gauge g 3;
  Metrics.max_gauge g 9;
  Metrics.max_gauge g 2;
  Metrics.observe h 5;
  Metrics.observe h 10;
  Metrics.observe h 11;
  Metrics.observe h 1000;
  let s = Metrics.snapshot m in
  (match Metrics.find s "c" with
  | Some (Metrics.Counter v) -> check_int "counter" 5 v
  | _ -> Alcotest.fail "c missing");
  (match Metrics.find s "g" with
  | Some (Metrics.Gauge v) -> check_int "gauge max" 9 v
  | _ -> Alcotest.fail "g missing");
  match Metrics.find s "h" with
  | Some (Metrics.Histogram { bounds; counts; sum; count }) ->
    check_int "bounds" 2 (Array.length bounds);
    check_int "bucket <=10" 2 counts.(0);
    check_int "bucket <=100" 1 counts.(1);
    check_int "overflow" 1 counts.(2);
    check_int "sum" (5 + 10 + 11 + 1000) sum;
    check_int "count" 4 count
  | _ -> Alcotest.fail "h missing"

let test_metrics_disabled_counts_nothing () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  let h = Metrics.histogram m "h" ~bounds:[| 1 |] in
  Metrics.incr c;
  Metrics.add c 100;
  Metrics.observe h 5;
  (match Metrics.find (Metrics.snapshot m) "c" with
  | Some (Metrics.Counter v) -> check_int "still zero" 0 v
  | _ -> Alcotest.fail "c missing");
  (* Flipping the shared switch makes the same handles live. *)
  Metrics.set_enabled m true;
  Metrics.incr c;
  match Metrics.find (Metrics.snapshot m) "c" with
  | Some (Metrics.Counter v) -> check_int "counts once enabled" 1 v
  | _ -> Alcotest.fail "c missing"

let test_metrics_snapshot_sorted_and_stable () =
  let m = Metrics.create ~enabled:true () in
  ignore (Metrics.counter m "zebra");
  ignore (Metrics.gauge m "alpha");
  ignore (Metrics.counter m "middle");
  let names = List.map fst (Metrics.snapshot m) in
  Alcotest.(check (list string))
    "sorted by name" [ "alpha"; "middle"; "zebra" ] names;
  check_string "render deterministic"
    (Metrics.render (Metrics.snapshot m))
    (Metrics.render (Metrics.snapshot m))

let test_metrics_kind_clash () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  (try
     ignore (Metrics.gauge m "x");
     Alcotest.fail "kind clash accepted"
   with Invalid_argument _ -> ());
  ignore (Metrics.histogram m "h" ~bounds:[| 1; 2 |]);
  try
    ignore (Metrics.histogram m "h" ~bounds:[| 1; 3 |]);
    Alcotest.fail "bounds clash accepted"
  with Invalid_argument _ -> ()

let test_metrics_merge () =
  let mk () =
    let m = Metrics.create ~enabled:true () in
    let c = Metrics.counter m "c" in
    let g = Metrics.gauge m "g" in
    let h = Metrics.histogram m "h" ~bounds:[| 10 |] in
    (m, c, g, h)
  in
  let m1, c1, g1, h1 = mk () in
  let m2, c2, g2, h2 = mk () in
  Metrics.add c1 3;
  Metrics.add c2 4;
  Metrics.set_gauge g1 5;
  Metrics.set_gauge g2 6;
  Metrics.observe h1 1;
  Metrics.observe h2 100;
  let merged = Metrics.merge [ Metrics.snapshot m1; Metrics.snapshot m2 ] in
  (match Metrics.find merged "c" with
  | Some (Metrics.Counter v) -> check_int "counters add" 7 v
  | _ -> Alcotest.fail "c missing");
  (match Metrics.find merged "g" with
  | Some (Metrics.Gauge v) -> check_int "gauges add" 11 v
  | _ -> Alcotest.fail "g missing");
  (match Metrics.find merged "h" with
  | Some (Metrics.Histogram { counts; sum; count; _ }) ->
    check_int "bucket" 1 counts.(0);
    check_int "overflow" 1 counts.(1);
    check_int "sum" 101 sum;
    check_int "count" 2 count
  | _ -> Alcotest.fail "h missing");
  (* Incompatible kinds refuse to merge. *)
  let m3 = Metrics.create ~enabled:true () in
  ignore (Metrics.gauge m3 "c");
  try
    ignore (Metrics.merge [ Metrics.snapshot m1; Metrics.snapshot m3 ]);
    Alcotest.fail "kind mismatch merged"
  with Invalid_argument _ -> ()

let test_histogram_merge_zero_width () =
  (* Degenerate population: every observation across both registries
     equals the single bound, so everything must land in bucket 0 (the
     zero-width [<= bound] bucket) and nothing may leak to overflow. *)
  let mk v n =
    let m = Metrics.create ~enabled:true () in
    let h = Metrics.histogram m "h" ~bounds:[| 7 |] in
    for _ = 1 to n do
      Metrics.observe h v
    done;
    m
  in
  let merged =
    Metrics.merge [ Metrics.snapshot (mk 7 3); Metrics.snapshot (mk 7 5) ]
  in
  (match Metrics.find merged "h" with
  | Some (Metrics.Histogram { bounds; counts; sum; count }) ->
    check_int "one bound" 1 (Array.length bounds);
    check_int "all in bucket 0" 8 counts.(0);
    check_int "overflow empty" 0 counts.(1);
    check_int "sum" 56 sum;
    check_int "count" 8 count
  | _ -> Alcotest.fail "h missing");
  (* Same name, different bounds: the merge must refuse, not resample. *)
  let m3 = Metrics.create ~enabled:true () in
  ignore (Metrics.histogram m3 "h" ~bounds:[| 8 |]);
  try
    ignore (Metrics.merge [ Metrics.snapshot (mk 7 1); Metrics.snapshot m3 ]);
    Alcotest.fail "bounds mismatch merged"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* JSON codec *)

let test_json_roundtrip () =
  let t =
    Json.Obj
      [ ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("ints", Json.List [ Json.Int 0; Json.Int (-42); Json.Int 123456789 ]);
        ("floats", Json.List [ Json.Float 1.5; Json.Float (-0.25) ]);
        ("strings", Json.String "a\"b\\c\nd\te\r\x01f");
        ("nested", Json.Obj [ ("empty_list", Json.List []);
                              ("empty_obj", Json.Obj []) ]) ]
  in
  let s = Json.to_string t in
  match Json.parse s with
  | Error e -> Alcotest.fail ("did not parse: " ^ e)
  | Ok t' ->
    check_string "roundtrip" s (Json.to_string t');
    check_bool "tree equal" true (t = t')

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "[1] trailing";
      "{\"a\" 1}" ]

let test_json_duplicate_keys () =
  (* Our emitter never writes the same key twice, so a duplicate is an
     emitter bug the strict parser must surface — not last-wins. *)
  (match Json.parse "{\"a\":1,\"a\":2}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate key parsed");
  (match Json.parse "{\"a\":{\"x\":1,\"x\":1}}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nested duplicate key parsed");
  (* Same key in sibling objects is fine. *)
  match Json.parse "[{\"a\":1},{\"a\":2}]" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("sibling keys rejected: " ^ e)

(* A sized generator of emittable trees: finite floats only (a
   non-finite float renders as [null], which can never round-trip) and
   distinct keys per object (the strict parser rejects duplicates). *)
let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  let finite_float =
    map2
      (fun m e -> float_of_int m *. (10. ** float_of_int e))
      (int_range (-1_000_000) 1_000_000)
      (int_range (-3) 3)
  in
  let key = string_size ~gen:(map Char.chr (int_range 97 122)) (int_range 1 6) in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.String s) (small_string ~gen:printable) ]
  in
  sized
    (fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [ (2, scalar);
               ( 1,
                 map
                   (fun xs -> Json.List xs)
                   (list_size (int_range 0 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs ->
                     let seen = Hashtbl.create 8 in
                     Json.Obj
                       (List.filter
                          (fun (k, _) ->
                            if Hashtbl.mem seen k then false
                            else begin
                              Hashtbl.add seen k ();
                              true
                            end)
                          kvs))
                   (list_size (int_range 0 4) (pair key (self (n / 2)))) ) ]))

(* The codec's round-trip property: whatever tree we emit, parsing the
   rendering yields the same tree — ints stay ints, finite floats
   re-read exactly (%.17g), strings survive escaping, member order is
   preserved. *)
let json_roundtrip_qcheck =
  QCheck.Test.make ~name:"emit -> parse round-trips any emittable tree"
    ~count:200 (QCheck.make json_gen) (fun t ->
      match Json.parse (Json.to_string t) with
      | Ok t' -> t = t'
      | Error _ -> false)

let test_json_accessors () =
  match Json.parse "{\"a\": [1, 2.5, \"x\"], \"b\": {\"c\": 3}}" with
  | Error e -> Alcotest.fail e
  | Ok t ->
    check_int "member int" 3
      (Option.get (Json.to_int (Option.get (Json.member "c" (Option.get (Json.member "b" t))))));
    (match Json.member "a" t with
    | Some l -> check_int "list len" 3 (List.length (Json.to_list l))
    | None -> Alcotest.fail "a missing");
    check_bool "missing member" true (Json.member "zzz" t = None)

let test_metrics_to_json_parses () =
  let m = Metrics.create ~enabled:true () in
  Metrics.add (Metrics.counter m "c") 3;
  Metrics.observe (Metrics.histogram m "h" ~bounds:[| 1; 2 |]) 5;
  let s = Json.to_string (Metrics.to_json (Metrics.snapshot m)) in
  match Json.parse s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)

(* ------------------------------------------------------------------ *)
(* Timeline: phase derivation and trace export *)

let mk_timeline marks =
  let tl = Timeline.create () in
  List.iter
    (fun (time, epoch, tid, kind) -> Timeline.mark tl ~time ~epoch ~tid kind)
    marks;
  tl

(* How a switch heard an epoch: [parent = -1] for an initiator. *)
let heard ?(parent = -1) ?(via_port = -1) ?(hop = 0) ?(origin = 0) () =
  Timeline.Epoch_start { parent; via_port; hop; origin }

let full_epoch_marks =
  [ (Time.us 100, -1L, -1, Timeline.Detection);
    (Time.us 200, 3L, 0, heard ());
    (Time.us 210, 3L, 1, heard ~parent:0 ~via_port:1 ~hop:1 ());
    (Time.us 220, 3L, 2, heard ~parent:0 ~via_port:2 ~hop:1 ());
    (Time.us 300, 3L, 1, Timeline.Tree_stable);
    (Time.us 310, 3L, 2, Timeline.Tree_stable);
    (Time.us 350, 3L, 0, Timeline.Tree_stable);
    (Time.us 400, 3L, 0, Timeline.Reports_closed);
    (Time.us 450, 3L, 0, Timeline.Load_begin);
    (Time.us 455, 3L, 1, Timeline.Load_begin);
    (Time.us 460, 3L, 2, Timeline.Load_begin);
    (Time.us 500, 3L, 1, Timeline.Configured);
    (Time.us 505, 3L, 2, Timeline.Configured);
    (Time.us 510, 3L, 0, Timeline.Configured) ]

let test_timeline_phases () =
  let tl = mk_timeline full_epoch_marks in
  match Timeline.epochs tl with
  | [ e ] ->
    check_bool "complete" true e.Timeline.es_complete;
    check_int "epoch" 3 (Int64.to_int e.Timeline.es_epoch);
    check_int "starts at detection" (Time.us 100) e.Timeline.es_start;
    check_int "stops at last configured" (Time.us 510) e.Timeline.es_stop;
    Alcotest.(check (list string))
      "phases in pipeline order" Timeline.phase_names
      (List.map (fun p -> p.Timeline.ph_name) e.Timeline.es_phases);
    (* Contiguous and summing exactly to the epoch duration. *)
    let stop =
      List.fold_left
        (fun cursor p ->
          check_int ("contiguous at " ^ p.Timeline.ph_name) cursor
            p.Timeline.ph_start;
          check_bool "ordered" true (p.Timeline.ph_stop >= p.Timeline.ph_start);
          p.Timeline.ph_stop)
        e.Timeline.es_start e.Timeline.es_phases
    in
    check_int "phases cover the epoch" e.Timeline.es_stop stop
  | es -> Alcotest.fail (Printf.sprintf "expected 1 epoch, got %d" (List.length es))

let test_timeline_incomplete_epoch () =
  (* An epoch superseded mid-flight: no Reports_closed / Configured. *)
  let tl =
    mk_timeline
      (full_epoch_marks
      @ [ (Time.us 600, 4L, 0, heard ());
          (Time.us 610, 4L, 1, heard ~parent:0 ~via_port:1 ~hop:1 ()) ])
  in
  match Timeline.epochs tl with
  | [ e3; e4 ] ->
    check_bool "first complete" true e3.Timeline.es_complete;
    check_bool "second incomplete" false e4.Timeline.es_complete;
    check_int "no phases" 0 (List.length e4.Timeline.es_phases)
  | es -> Alcotest.fail (Printf.sprintf "expected 2 epochs, got %d" (List.length es))

let test_timeline_trace_validates () =
  let tl = mk_timeline full_epoch_marks in
  let s = Json.to_string (Timeline.to_trace_json tl) in
  match Json.parse s with
  | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
  | Ok j -> (
    match Timeline.validate_trace j with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)

let test_timeline_validate_rejects_tampering () =
  let tl = mk_timeline full_epoch_marks in
  match Timeline.to_trace_json tl with
  | Json.Obj fields ->
    (* Drop one phase span: the contiguity/sum check must fail. *)
    let tampered =
      Json.Obj
        (List.map
           (fun (k, v) ->
             if k <> "traceEvents" then (k, v)
             else
               ( k,
                 Json.List
                   (List.filter
                      (fun ev ->
                        match Json.member "name" ev with
                        | Some (Json.String "spanning_tree") -> false
                        | _ -> true)
                      (Json.to_list v)) ))
           fields)
    in
    (match Timeline.validate_trace tampered with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "validated a trace with a missing phase")
  | _ -> Alcotest.fail "trace is not an object"

let test_timeline_causal_kinds_ignored () =
  (* Position and Skeptic_wait marks feed only the causal view: threading
     them through an epoch leaves its phases, shape and export alone. *)
  let plain = mk_timeline full_epoch_marks in
  let causal_marks =
    [ (Time.us 150, 0L, 1, Timeline.Skeptic_wait (Time.us 40));
      (Time.us 230, 3L, 1, Timeline.Position);
      (Time.us 240, 3L, 2, Timeline.Position);
      (Time.us 520, 3L, 0, Timeline.Skeptic_wait (Time.us 10));
      (Time.us 700, 4L, 1, Timeline.Position) ]
  in
  let mixed =
    mk_timeline
      (List.stable_sort
         (fun (a, _, _, _) (b, _, _, _) -> Time.compare a b)
         (full_epoch_marks @ causal_marks))
  in
  check_bool "epochs unchanged" true
    (Timeline.epochs plain = Timeline.epochs mixed);
  Alcotest.(check (list (pair string int)))
    "shape unchanged" (Timeline.shape plain) (Timeline.shape mixed);
  check_string "trace export unchanged"
    (Json.to_string (Timeline.to_trace_json plain))
    (Json.to_string (Timeline.to_trace_json mixed))

(* ------------------------------------------------------------------ *)
(* Causal view: timeline marks -> wave reconstruction *)

let test_causal_wave_reconstruction () =
  let tl =
    mk_timeline
      ([ (Time.us 50, -1L, -1, Timeline.Fault "link_down:0");
         (* A three-switch chain: 0 initiates, 1 joins via 0, 2 via 1. *)
         (Time.us 100, 5L, 0, heard ~origin:1 ());
         (Time.us 110, 5L, 1, Timeline.Skeptic_wait (Time.us 30));
         (Time.us 120, 5L, 1, heard ~parent:0 ~via_port:2 ~hop:1 ~origin:1 ());
         (Time.us 150, 5L, 2, heard ~parent:1 ~via_port:3 ~hop:2 ~origin:1 ()) ]
      @ List.map
          (fun sw -> (Time.us 200, 5L, sw, Timeline.Position))
          [ 0; 1; 2 ]
      @ List.map
          (fun sw -> (Time.us (300 + (10 * sw)), 5L, sw, Timeline.Configured))
          [ 0; 1; 2 ])
  in
  check_int "origin numbered from 1" 1 (Timeline.faults tl);
  match Causal.waves tl with
  | [ w ] ->
    check_bool "complete" true w.Causal.w_complete;
    check_bool "validates" true (Causal.validate_wave w = Ok ());
    check_int "nodes" 3 (List.length w.Causal.w_nodes);
    check_int "depth" 2 w.Causal.w_depth;
    check_int "fanout" 1 w.Causal.w_fanout;
    check_int "starts at first heard" (Time.us 100) w.Causal.w_start;
    check_int "ends at last configured" (Time.us 320) w.Causal.w_end;
    check_string "origin label" "link_down:0" w.Causal.w_origin_label;
    Alcotest.(check (list int))
      "critical chain root-first to the slowest node" [ 0; 1; 2 ]
      w.Causal.w_critical;
    let n1 = List.nth w.Causal.w_nodes 1 in
    check_int "hop latency" (Time.us 20) (Option.get n1.Causal.n_hop_ns);
    check_int "heal latency = configured - fault" (Time.us 260)
      (Option.get n1.Causal.n_heal_ns);
    check_int "skeptic hold attributed" (Time.us 30) n1.Causal.n_skeptic_ns;
    check_int "no hold elsewhere" 0
      (List.nth w.Causal.w_nodes 0).Causal.n_skeptic_ns;
    (match w.Causal.w_hop with
    | Some d ->
      check_int "two hop samples" 2 d.Causal.d_count;
      check_int "hop max" (Time.us 30) d.Causal.d_max
    | None -> Alcotest.fail "no hop distribution");
    check_int "front covers every node" 3 (List.length w.Causal.w_front)
  | ws -> Alcotest.fail (Printf.sprintf "expected 1 wave, got %d" (List.length ws))

let test_causal_reboot_overwrites () =
  (* Re-hearing the same epoch (a reboot mid-wave) replaces the node
     record: last wins. *)
  let tl =
    mk_timeline
      [ (Time.us 10, 1L, 0, heard ());
        (Time.us 20, 1L, 1, heard ~parent:0 ~via_port:1 ~hop:1 ());
        (Time.us 30, 1L, 1, Timeline.Configured);
        (Time.us 40, 1L, 1, heard ~parent:0 ~via_port:2 ~hop:1 ()) ]
  in
  match Causal.waves tl with
  | [ w ] ->
    check_int "still one node per switch" 2 (List.length w.Causal.w_nodes);
    let n1 = List.nth w.Causal.w_nodes 1 in
    check_int "latest heard wins" (Time.us 40) n1.Causal.n_heard;
    check_int "latest port wins" 2 n1.Causal.n_via_port;
    check_bool "earlier configuration forgotten" true
      (n1.Causal.n_configured = None)
  | _ -> Alcotest.fail "expected one wave"

let test_causal_validate_rejects_broken_parent () =
  let tl =
    mk_timeline
      [ (Time.us 10, 1L, 0, heard ());
        (Time.us 20, 1L, 1, heard ~parent:3 ~via_port:1 ~hop:1 ()) ]
  in
  match Causal.waves tl with
  | [ w ] -> (
    match Causal.validate_wave w with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "validated a node whose parent is not in the wave")
  | _ -> Alcotest.fail "expected one wave"

let test_causal_json_parses () =
  let tl =
    mk_timeline
      [ (Time.us 10, 1L, 0, heard ());
        (Time.us 20, 1L, 1, heard ~parent:0 ~via_port:1 ~hop:1 ());
        (Time.us 30, 1L, 0, Timeline.Configured);
        (Time.us 40, 1L, 1, Timeline.Configured) ]
  in
  let recorders =
    [ (0, [ { Causal.fr_time = Time.us 5; fr_epoch = 1L; fr_msg = "boot" } ]) ]
  in
  List.iter
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("causal JSON does not parse: " ^ e))
    [ Causal.to_json ~recorders tl; Causal.to_trace_json tl ]

(* ------------------------------------------------------------------ *)
(* One instrumentation stream: the Autopilot's event fold on a live run *)

(* An SRC boot plus one link failure, with telemetry on; also returns
   the fault's injection time. *)
let src_run_with_fault () =
  let net =
    N.create ~params:Autonet_autopilot.Params.fast ~telemetry:`On
      (B.src_service_lan ())
  in
  N.start net;
  let converge () =
    match N.run_until_converged net with
    | Some _ -> ()
    | None -> Alcotest.fail "network did not converge"
  in
  converge ();
  let fault_at = N.now net in
  N.apply_fault net
    (Autonet_topo.Faults.Link_down
       (List.hd (Graph.links (N.graph net))).Graph.id);
  converge ();
  (net, fault_at)

let test_recorders_are_log_tail () =
  let net, _ = src_run_with_fault () in
  let recorders = N.recorders net in
  check_int "one recorder per switch"
    (Graph.switch_count (N.graph net))
    (List.length recorders);
  let wrapped = ref false in
  List.iter
    (fun (s, entries) ->
      let log = AP.event_log (N.autopilot net s) in
      let all = Event_log.entries log in
      let n = List.length all in
      if n > 64 then wrapped := true;
      let tail = List.filteri (fun i _ -> i >= n - 64) all in
      check_int "newest 64 entries" (List.length tail) (List.length entries);
      List.iter2
        (fun (fr : Causal.recorder_entry) (e : Event_log.entry) ->
          check_int "sim time" (Time.sub e.local_time (Event_log.skew log))
            fr.fr_time;
          check_int "epoch" (Int64.to_int (Epoch.to_int64 e.epoch))
            (Int64.to_int fr.fr_epoch);
          check_string "rendered as logged" (Event.to_string e.event) fr.fr_msg)
        entries tail)
    recorders;
  check_bool "some log outgrew its recorder" true !wrapped

(* The default mode builds no registry and no timeline: a booted network
   has nothing to snapshot. *)
let test_disabled_builds_nothing () =
  let net = N.create ~params:Autonet_autopilot.Params.fast (B.line ~n:2 ()) in
  N.start net;
  ignore (N.run_until_converged net);
  check_bool "no registry" true (N.metrics net = None);
  check_bool "no timeline" true (N.timeline net = None);
  check_int "empty snapshot" 0 (List.length (N.telemetry_snapshot net))

let test_one_stream () =
  let net, fault_at = src_run_with_fault () in
  let g = N.graph net in
  List.iter
    (fun s ->
      List.iter
        (fun (e : Event_log.entry) ->
          if e.event = Event.Subtree_stable then
            Alcotest.failf "s%d logged Subtree_stable" s)
        (Event_log.entries (AP.event_log (N.autopilot net s))))
    (Graph.switches g);
  let tl = Option.get (N.timeline net) in
  let marks = Timeline.marks tl in
  let tids kind epoch =
    List.filter_map
      (fun (m : Timeline.mark) ->
        if m.m_kind = kind && m.m_epoch = epoch then Some m.m_tid else None)
      marks
  in
  check_bool "subtree stability reaches the timeline" true
    (List.exists (fun (m : Timeline.mark) -> m.m_kind = Timeline.Tree_stable)
       marks);
  let root =
    Option.get
      (Graph.switch_of_uid g
         (AP.position (N.autopilot net 0)).Spanning_tree.Position.root)
  in
  let healed = ref 0 in
  List.iter
    (fun (es : Timeline.epoch_spans) ->
      if es.es_complete then begin
        (* At boot every isolated switch closes epoch 1 for itself: one
           mark per component, each on a switch that stayed root. *)
        let closers = tids Timeline.Reports_closed es.es_epoch in
        let moved = tids Timeline.Position es.es_epoch in
        check_int
          (Printf.sprintf "epoch %Ld: each root closes once" es.es_epoch)
          (List.length (List.sort_uniq compare closers))
          (List.length closers);
        List.iter
          (fun s ->
            if List.mem s moved then
              Alcotest.failf "epoch %Ld closed on s%d, which left the root"
                es.es_epoch s)
          closers;
        if es.es_start >= fault_at then begin
          incr healed;
          Alcotest.(check (list int))
            (Printf.sprintf "epoch %Ld closed once, on the root" es.es_epoch)
            [ root ] closers
        end
      end)
    (Timeline.epochs tl);
  check_bool "the fault's reconfiguration completed" true (!healed > 0)

(* ------------------------------------------------------------------ *)
(* Pool metric determinism across domain counts *)

let pooled_snapshot ~domains (t : B.t) =
  let g = t.B.graph in
  let tree = Spanning_tree.compute g ~member:0 in
  let updown = Updown.orient g tree in
  let routes = Routes.compute g tree updown in
  let assignment =
    Address_assign.make g
      (List.map (fun s -> (s, 1)) (Spanning_tree.members tree))
  in
  let pool = Pool.create ~domains () in
  Pool.set_metrics_enabled pool true;
  let specs = Tables.build_all ~pool g tree updown routes assignment in
  let result = Deadlock.check_tables ~pool g specs in
  let render = Metrics.render (Pool.metrics_snapshot pool) in
  Pool.shutdown pool;
  (specs, result, render)

(* The QCheck property of the determinism contract: whatever the
   topology, the merged pool snapshot after a pooled table build and
   deadlock check renders byte-identically at 1, 2 and 4 domains (and
   the computed specs agree too). *)
let pool_snapshot_qcheck =
  QCheck.Test.make ~name:"pool snapshot identical for 1/2/4 domains" ~count:8
    QCheck.(pair small_nat small_nat)
    (fun (n0, seed) ->
      (* Clamp rather than [int_range]: some QCheck shrinkers step outside
         the range, and [random_connected] rejects n < 1. *)
      let n = 4 + (n0 mod 9) in
      let topo =
        B.random_connected
          ~rng:(Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 1)))
          ~n ~extra_links:3 ()
      in
      let s1, r1, m1 = pooled_snapshot ~domains:1 topo in
      let s2, r2, m2 = pooled_snapshot ~domains:2 topo in
      let s4, r4, m4 = pooled_snapshot ~domains:4 topo in
      s1 = s2 && s2 = s4 && r1 = r2 && r2 = r4 && m1 = m2 && m2 = m4)

let test_pool_counts_consistent () =
  let _, _, _ = pooled_snapshot ~domains:2 (B.src_service_lan ()) in
  (* Re-run keeping the pool to inspect the snapshot structurally. *)
  let t = B.src_service_lan () in
  let g = t.B.graph in
  let tree = Spanning_tree.compute g ~member:0 in
  let updown = Updown.orient g tree in
  let routes = Routes.compute g tree updown in
  let assignment =
    Address_assign.make g
      (List.map (fun s -> (s, 1)) (Spanning_tree.members tree))
  in
  let pool = Pool.create ~domains:2 () in
  Pool.set_metrics_enabled pool true;
  ignore (Tables.build_all ~pool g tree updown routes assignment);
  let s = Pool.metrics_snapshot pool in
  let counter name =
    match Metrics.find s name with
    | Some (Metrics.Counter v) -> v
    | _ -> Alcotest.fail (name ^ " missing")
  in
  check_bool "calls counted" true (counter "pool.calls" >= 1);
  check_int "worker items sum to items" (counter "pool.items")
    (counter "pool.worker_items");
  (match Metrics.find s "pool.items_per_call" with
  | Some (Metrics.Histogram { count; sum; _ }) ->
    check_int "histogram count = calls" (counter "pool.calls") count;
    check_int "histogram sum = items" (counter "pool.items") sum
  | _ -> Alcotest.fail "pool.items_per_call missing");
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [ ( "metrics",
        [ Alcotest.test_case "counting" `Quick test_metrics_counting;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_metrics_disabled_counts_nothing;
          Alcotest.test_case "snapshot sorted and stable" `Quick
            test_metrics_snapshot_sorted_and_stable;
          Alcotest.test_case "kind clash" `Quick test_metrics_kind_clash;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
          Alcotest.test_case "zero-width bucket merge" `Quick
            test_histogram_merge_zero_width;
          Alcotest.test_case "to_json parses" `Quick
            test_metrics_to_json_parses ] );
      ( "json",
        [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "duplicate keys rejected" `Quick
            test_json_duplicate_keys;
          QCheck_alcotest.to_alcotest json_roundtrip_qcheck;
          Alcotest.test_case "accessors" `Quick test_json_accessors ] );
      ( "causal",
        [ Alcotest.test_case "wave reconstruction" `Quick
            test_causal_wave_reconstruction;
          Alcotest.test_case "reboot overwrites" `Quick
            test_causal_reboot_overwrites;
          Alcotest.test_case "validation rejects broken parent" `Quick
            test_causal_validate_rejects_broken_parent;
          Alcotest.test_case "JSON parses" `Quick test_causal_json_parses;
          Alcotest.test_case "recorders are the event-log tail" `Quick
            test_recorders_are_log_tail ] );
      ( "stream",
        [ Alcotest.test_case "subtree stability is timeline-only" `Quick
            test_one_stream;
          Alcotest.test_case "disabled builds nothing" `Quick
            test_disabled_builds_nothing ] );
      ( "timeline",
        [ Alcotest.test_case "phase derivation" `Quick test_timeline_phases;
          Alcotest.test_case "incomplete epoch" `Quick
            test_timeline_incomplete_epoch;
          Alcotest.test_case "trace validates" `Quick
            test_timeline_trace_validates;
          Alcotest.test_case "validation rejects tampering" `Quick
            test_timeline_validate_rejects_tampering;
          Alcotest.test_case "causal-only marks ignored" `Quick
            test_timeline_causal_kinds_ignored ] );
      ( "pool",
        [ QCheck_alcotest.to_alcotest pool_snapshot_qcheck;
          Alcotest.test_case "counts consistent" `Quick
            test_pool_counts_consistent ] ) ]

(* Model-based property tests: the event engine, the FIFO and the
   scheduling engine against simple reference models, plus decoder fuzzing
   — the "does the substrate itself hold up under arbitrary use" layer
   beneath the protocol tests. *)

open Autonet_net
module Engine = Autonet_sim.Engine
module Pqueue = Autonet_sim.Pqueue
module Fifo = Autonet_net.Fifo
module PV = Port_vector
module Sch = Autonet_switch.Scheduler
module Tables = Autonet_core.Tables


(* ------------------------------------------------------------------ *)
(* Engine vs a reference: random schedules and cancellations. *)

let engine_model =
  QCheck.Test.make ~name:"engine fires exactly the live events, in order"
    ~count:100
    QCheck.(small_list (pair (int_bound 1000) bool))
    (fun plan ->
      let e = Engine.create () in
      let fired = ref [] in
      let expected = ref [] in
      List.iteri
        (fun i (delay, cancel) ->
          let h = Engine.schedule e ~delay (fun () -> fired := i :: !fired) in
          if cancel then Engine.cancel h
          else expected := (delay, i) :: !expected)
        plan;
      Engine.run e;
      (* Non-cancelled events fire exactly once, ordered by (time, seq). *)
      let want =
        List.sort compare !expected |> List.map snd
      in
      List.rev !fired = want)

let pqueue_model =
  QCheck.Test.make ~name:"pqueue pops in key order" ~count:200
    QCheck.(list (int_bound 500))
    (fun keys ->
      let q = Pqueue.create () in
      List.iter (fun k -> Pqueue.add q ~time:k k) keys;
      let rec drain acc =
        if Pqueue.is_empty q then List.rev acc
        else begin
          let t = Pqueue.min_time q in
          ignore (Pqueue.take q);
          drain (t :: acc)
        end
      in
      drain [] = List.stable_sort compare keys)

(* Adds and takes interleaved against a sorted list of [(time, seq)]:
   few distinct times make ties the common case, and adds outnumber takes
   so the queue grows well past its first capacity. *)
let pqueue_interleaved =
  QCheck.Test.make ~name:"pqueue add/take interleavings match a sorted list"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 400) (int_bound 9))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] and seq = ref 0 in
      let take_matches () =
        match !model with
        | [] -> Pqueue.is_empty q
        | ((time, _) as key) :: rest ->
          model := rest;
          (not (Pqueue.is_empty q))
          && Pqueue.min_time q = time
          && Pqueue.top q = key
          && Pqueue.take q = key
      in
      let rec drain () =
        match !model with [] -> Pqueue.is_empty q | _ -> take_matches () && drain ()
      in
      List.for_all
        (fun op ->
          let ok =
            if op < 7 then begin
              Pqueue.add q ~time:op (op, !seq);
              model := List.merge compare !model [ (op, !seq) ];
              incr seq;
              true
            end
            else take_matches ()
          in
          ok && Pqueue.length q = List.length !model)
        ops
      && drain ())

(* The run queue against a sorted set of (time, insertion index).  Three
   kinds of time: a few repeated instants; instants that share an index
   slot with 7, found through [runs_opened] (0, 7, t, 7 open three runs
   unless t and 7 share a slot, when the second 7 opens a fourth); and
   instants drawn from a wide range, which the long interleavings use so
   often that more distinct instants pass through the queue than the
   index has slots.  [Add_head] adds at the head's own time while its
   run drains. *)
type run_op = Add of int | Add_head | Take

let shares_slot a b =
  let q = Pqueue.create () in
  List.iter (fun time -> Pqueue.add q ~time ()) [ 0; a; b; a ];
  Pqueue.runs_opened q <> 3

let colliders =
  7 :: List.filteri (fun i _ -> i < 4)
         (List.filter (shares_slot 7) (List.init 5_000 (fun i -> i + 8)))

let gen_run_ops =
  let open QCheck.Gen in
  let ops ~wide =
    let time =
      frequency
        [ (4, map (fun k -> 1_000 * k) (int_bound 4));
          (3, oneofl colliders);
          (wide, int_bound 1_000_000) ]
    in
    frequency
      [ (5, map (fun t -> Add t) time); (2, return Add_head); (3, return Take) ]
  in
  frequency
    [ (4, list_size (int_bound 60) (ops ~wide:3));
      (1, list_size (int_range 1_200 2_000) (ops ~wide:40)) ]

let pp_run_ops ops =
  String.concat " "
    (List.map
       (function
         | Add t -> string_of_int t | Add_head -> "head" | Take -> "take")
       ops)

module Keys = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let pqueue_runs =
  QCheck.Test.make ~name:"run queue matches a sorted list of (time, index)"
    ~count:200
    (QCheck.make ~print:pp_run_ops ~shrink:QCheck.Shrink.list gen_run_ops)
    (fun ops ->
      if List.length colliders < 3 then
        QCheck.Test.fail_reportf "only %d instants share 7's slot below 5,008"
          (List.length colliders - 1);
      let q = Pqueue.create () and model = ref Keys.empty and n = ref 0 in
      let add time =
        Pqueue.add q ~time (time, !n);
        model := Keys.add (time, !n) !model;
        incr n
      in
      let take () =
        match Keys.min_elt_opt !model with
        | None -> Pqueue.is_empty q
        | Some ((time, _) as key) ->
          model := Keys.remove key !model;
          Pqueue.min_time q = time && Pqueue.top q = key && Pqueue.take q = key
      in
      let step = function
        | Add t -> add t; true
        | Add_head ->
          if not (Pqueue.is_empty q) then add (Pqueue.min_time q);
          true
        | Take -> take ()
      in
      List.for_all
        (fun op -> step op && Pqueue.length q = Keys.cardinal !model)
        ops
      && List.for_all (fun _ -> take ()) (Keys.elements !model)
      && Pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Fifo vs Queue. *)

let fifo_model =
  QCheck.Test.make ~name:"fifo behaves like a bounded queue" ~count:200
    QCheck.(pair (int_range 1 32) (small_list (option (int_bound 255))))
    (fun (cap, ops) ->
      let f = Fifo.create ~capacity:cap ~zero:(-1) () in
      let model = Queue.create () in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some v ->
            (* push; the model drops when full, like the hardware *)
            Fifo.push f v;
            if Queue.length model < cap then Queue.add v model
          | None -> (
            match (Fifo.pop f, Queue.take_opt model) with
            | Some a, Some b -> if a <> b then ok := false
            | None, None -> ()
            | _ -> ok := false))
        ops;
      let stop_level = int_of_float (Float.round (0.5 *. float_of_int cap)) in
      !ok
      && Fifo.occupancy f = Queue.length model
      && Fifo.above_threshold f = (Queue.length model > stop_level))

let fifo_overflow_flag =
  QCheck.Test.make ~name:"fifo overflow flag is exactly overfilling"
    ~count:200
    QCheck.(pair (int_range 1 16) (int_range 0 32))
    (fun (cap, pushes) ->
      let f = Fifo.create ~capacity:cap ~zero:0 () in
      for i = 1 to pushes do
        Fifo.push f i
      done;
      Fifo.overflowed f = (pushes > cap)
      && Fifo.occupancy f = min cap pushes
      && Fifo.max_occupancy f = min cap pushes)

(* ------------------------------------------------------------------ *)
(* Scheduler invariants under random traffic. *)

type sched_model = {
  mutable pending : (int * int list * bool) list; (* in_port, ports, bcast *)
  mutable busy : PV.t;
}

let scheduler_invariants =
  QCheck.Test.make
    ~name:"scheduler: grants are requested ports, no double bookings"
    ~count:150
    QCheck.(
      small_list
        (triple (int_range 1 12) (list_of_size Gen.(1 -- 3) (int_range 0 12)) bool))
    (fun reqs ->
      let s = Sch.create () in
      let m = { pending = []; busy = PV.empty } in
      let ok = ref true in
      List.iter
        (fun (in_port, ports, bcast) ->
          let vector = PV.of_list ports in
          let accepted = Sch.request s ~in_port ~vector ~broadcast:bcast in
          let had = List.exists (fun (p, _, _) -> p = in_port) m.pending in
          if accepted = had then ok := false (* must mirror head-of-line *)
          else if accepted then
            m.pending <- m.pending @ [ (in_port, ports, bcast) ];
          (* One scheduling round against the currently free ports. *)
          let free = PV.diff (PV.full ~n_ports:12) m.busy in
          let grants = Sch.round s ~free in
          List.iter
            (fun (g : Sch.grant) ->
              (* The grant must correspond to a pending request and only
                 use requested, free ports. *)
              (match
                 List.find_opt (fun (p, _, _) -> p = g.Sch.in_port) m.pending
               with
              | None -> ok := false
              | Some (_, want, b) ->
                if b <> g.Sch.broadcast then ok := false;
                List.iter
                  (fun p ->
                    if not (List.mem p want) then ok := false;
                    if PV.mem p m.busy then ok := false;
                    m.busy <- PV.add p m.busy)
                  (PV.to_list g.Sch.out_ports));
              m.pending <-
                List.filter (fun (p, _, _) -> p <> g.Sch.in_port) m.pending)
            grants;
          (* Occasionally free a busy port (packet finished). *)
          match PV.lowest m.busy with
          | Some p when in_port mod 3 = 0 -> m.busy <- PV.remove p m.busy
          | _ -> ())
        reqs;
      !ok && Sch.pending s = List.length m.pending)

let scheduler_fcfc_priority =
  QCheck.Test.make
    ~name:"scheduler: an older request always beats a younger one for a port"
    ~count:200
    QCheck.(pair (int_range 0 12) (int_range 0 12))
    (fun (a, b) ->
      let s = Sch.create () in
      ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton a) ~broadcast:false);
      ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton b) ~broadcast:false);
      match Sch.round s ~free:(PV.of_list [ a; b ]) with
      | [] -> false
      | first :: _ ->
        (* Port contention (a = b): the older request (in_port 1) wins. *)
        if a = b then first.Sch.in_port = 1 else true)

(* ------------------------------------------------------------------ *)
(* Forwarding-table entries: one word holds the flag and the port set. *)

let entry_word =
  let flag_and_ports = QCheck.(pair bool (small_list (int_bound 15))) in
  QCheck.Test.make
    ~name:"table entry: accessors, set, absent slots and word equality"
    ~count:300
    QCheck.(
      triple flag_and_ports flag_and_ports (pair (int_bound 15) (int_bound 0xFFFF)))
    (fun ((b, ports), (b', ports'), (in_port, dst)) ->
      let word b ports = Tables.entry ~broadcast:b (PV.of_list ports) in
      let e = word b ports and canon = List.sort_uniq Int.compare in
      let spec = Tables.empty ~switch:0 and dst = Short_address.of_int dst in
      Tables.set spec ~in_port ~dst e;
      let stored = Tables.lookup spec ~in_port ~dst in
      let other = Tables.lookup spec ~in_port:((in_port + 1) land 15) ~dst in
      Tables.set spec ~in_port ~dst (word b []);
      Tables.broadcast e = b
      && Tables.vector e = PV.of_list ports
      && (stored = if ports = [] then Tables.discard else e)
      && other = Tables.discard
      && Tables.lookup spec ~in_port ~dst = Tables.discard
      && Tables.entry_count spec = 0
      && e = word b (List.rev ports @ ports)
      && (e = word b' ports') = ((b, canon ports) = (b', canon ports')))

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing: arbitrary bytes never crash, only clean errors. *)

module Messages = Autonet_autopilot.Messages

(* Reports from real topologies, for the mutation inputs. *)
let real_reports =
  let module B = Autonet_topo.Builders in
  lazy
    (List.map
       (fun (t : B.t) -> Testlib.report_of_graph t.graph)
       [ B.line ~n:2 ();
         B.ring ~n:3 ();
         B.attach_hosts (B.ring ~n:4 ()) ~per_switch:1;
         B.torus ~rows:2 ~cols:3 () ])

(* The fixed part of a [Stable_report] (tag 2) or [Complete] (tag 4). *)
let gen_report_header =
  QCheck.Gen.(
    map3
      (fun tag epoch seq ->
        let w = Wire.Writer.create () in
        Wire.Writer.u8 w tag;
        Wire.Writer.u64 w (Int64.of_int epoch);
        Wire.Writer.u32 w seq;
        Wire.Writer.contents w)
      (oneofl [ 2; 4 ]) (int_bound 1000) (int_bound 1000))

(* Random bytes in the shape of a report: any [max_ports], a few switches
   with small UIDs in any order, mostly valid port tags with any peer
   port, so the checks after the framing are reached. *)
let gen_report_body =
  QCheck.Gen.(
    let* max_ports =
      frequency
        [ (3, int_range 1 15); (1, return 0); (1, int_range 16 20);
          (1, int_bound 255) ]
    in
    let port =
      frequency
        [ (6, return `Unused); (2, return `Host);
          (3, map2 (fun u pp -> `Link (u, pp)) (int_bound 4) (int_bound 20));
          (1, map (fun tag -> `Tag tag) (int_range 3 255)) ]
    in
    let switch = pair (int_bound 4) (list_repeat max_ports port) in
    map
      (fun switches ->
        let w = Wire.Writer.create () in
        Wire.Writer.u8 w max_ports;
        Wire.Writer.list w
          (fun (uid, ports) ->
            Wire.Writer.u48 w uid;
            Wire.Writer.u16 w 1;
            List.iter
              (function
                | `Unused -> Wire.Writer.u8 w 0
                | `Host -> Wire.Writer.u8 w 1
                | `Link (peer, peer_port) ->
                  Wire.Writer.u8 w 2;
                  Wire.Writer.u48 w peer;
                  Wire.Writer.u8 w peer_port
                | `Tag tag -> Wire.Writer.u8 w tag)
              ports)
          switches;
        Wire.Writer.contents w)
      (list_size (int_bound 3) switch))

(* A real report's message with 1-3 bits flipped, or cut short. *)
let gen_mutated_report =
  QCheck.Gen.(
    let* report = oneofl (Lazy.force real_reports) in
    let* complete = bool in
    let epoch = Autonet_core.Epoch.zero in
    let s =
      Messages.encode
        (if complete then Messages.Complete { epoch; seq = 1; report }
         else Messages.Stable_report { epoch; seq = 1; report })
    in
    let n = String.length s in
    let flip =
      map
        (fun bits ->
          let b = Bytes.of_string s in
          List.iter
            (fun i ->
              let c = Char.code (Bytes.get b (i / 8)) in
              Bytes.set b (i / 8) (Char.chr (c lxor (1 lsl (i mod 8)))))
            bits;
          Bytes.to_string b)
        (list_size (int_range 1 3) (int_bound ((8 * n) - 1)))
    in
    let truncate = map (fun k -> String.sub s 0 k) (int_bound (n - 1)) in
    oneof [ flip; truncate ])

let gen_message_input =
  QCheck.Gen.(
    oneof
      [ string_size (0 -- 80);
        map2 ( ^ ) gen_report_header
          (oneof [ string_size (0 -- 120); gen_report_body ]);
        gen_mutated_report ])

(* Bad input raises only the [Wire] exceptions.  A report that decodes
   can be rebuilt as a graph, and its message re-encodes to exactly the
   input: the encoding is canonical, which report interning relies on. *)
let message_fuzz =
  QCheck.Test.make ~name:"message decoder is total" ~count:500
    (QCheck.make ~print:String.escaped gen_message_input)
    (fun s ->
      match Messages.decode s with
      | Messages.Complete { report; _ } | Messages.Stable_report { report; _ }
        as msg ->
        ignore (Autonet_core.Topology_report.to_graph report);
        Messages.encode msg = s
      | _ -> true
      | exception (Wire.Truncated | Wire.Malformed _) -> true)

let packet_fuzz =
  QCheck.Test.make ~name:"packet decoder is total" ~count:500
    QCheck.(string_of_size Gen.(0 -- 120))
    (fun s ->
      match Packet.decode s with
      | _, _ -> true
      | exception Wire.Truncated -> true)

let message_roundtrip_via_packet =
  QCheck.Test.make ~name:"message -> packet -> bytes -> message" ~count:200
    QCheck.(pair (int_bound 0xFFFF) (int_bound 100))
    (fun (token, port) ->
      let msg =
        Autonet_autopilot.Messages.Conn_test
          { token;
            src_uid = Uid.of_int (port * 7);
            src_port = (port mod 12) + 1;
            sw_version = 1 + (token mod 5) }
      in
      let pkt = Autonet_autopilot.Messages.to_packet msg in
      let bytes = Packet.encode pkt in
      let pkt', ok = Packet.decode bytes in
      ok
      && Autonet_autopilot.Messages.encode
           (Autonet_autopilot.Messages.of_packet pkt')
         = Autonet_autopilot.Messages.encode msg)

(* ------------------------------------------------------------------ *)
(* Routes: reported distance equals walked distance. *)

let routes_distance_consistent =
  QCheck.Test.make ~name:"route walk length equals reported distance"
    ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int (seed + 5)) in
      let topo = Testlib.random_topology rng ~max_n:10 in
      let c = Testlib.configure topo in
      let module G = Autonet_core.Graph in
      let module R = Autonet_core.Routes in
      let g = c.Testlib.graph in
      List.for_all
        (fun src ->
          List.for_all
            (fun dst ->
              match R.distance c.Testlib.routes ~src ~dst with
              | None -> false
              | Some d ->
                let rec walk at phase steps =
                  if at = dst then steps
                  else if steps > d then steps (* overshoot = failure *)
                  else
                    match R.next_hops c.Testlib.routes ~at ~phase ~dst with
                    | [] -> max_int
                    | (_, l_id) :: _ ->
                      let l = Option.get (G.link g l_id) in
                      let peer, _ = G.other_end l at in
                      let up =
                        Autonet_core.Updown.goes_up c.Testlib.updown l ~from:at
                      in
                      walk peer (if up then phase else R.Down) (steps + 1)
                in
                walk src R.Up 0 = d)
            (G.switches g))
        (G.switches g))

let () =
  Alcotest.run "model"
    [ ( "engine",
        [ QCheck_alcotest.to_alcotest engine_model;
          QCheck_alcotest.to_alcotest pqueue_model;
          QCheck_alcotest.to_alcotest pqueue_interleaved;
          QCheck_alcotest.to_alcotest pqueue_runs ] );
      ( "fifo",
        [ QCheck_alcotest.to_alcotest fifo_model;
          QCheck_alcotest.to_alcotest fifo_overflow_flag ] );
      ( "scheduler",
        [ QCheck_alcotest.to_alcotest scheduler_invariants;
          QCheck_alcotest.to_alcotest scheduler_fcfc_priority ] );
      ( "tables", [ QCheck_alcotest.to_alcotest entry_word ] );
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest message_fuzz;
          QCheck_alcotest.to_alcotest packet_fuzz;
          QCheck_alcotest.to_alcotest message_roundtrip_via_packet ] );
      ( "routes",
        [ QCheck_alcotest.to_alcotest routes_distance_consistent ] ) ]

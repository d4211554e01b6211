(* Tests for the switch hardware models: port vectors, the forwarding
   table, the first-come first-considered scheduler and the crossbar. *)

open Autonet_net
module PV = Port_vector
module FT = Autonet_switch.Forwarding_table
module Tables = Autonet_core.Tables
module Sch = Autonet_switch.Scheduler
module XB = Autonet_switch.Crossbar

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Port vectors *)

let test_pv_basics () =
  let v = PV.of_list [ 3; 1; 7 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 7 ] (PV.to_list v);
  check_bool "mem" true (PV.mem 3 v);
  check_bool "not mem" false (PV.mem 2 v);
  check_int "count" 3 (PV.count v);
  check_bool "lowest" true (PV.lowest v = Some 1);
  check_bool "empty lowest" true (PV.lowest PV.empty = None)

let test_pv_set_operations () =
  let a = PV.of_list [ 1; 2; 3 ] and b = PV.of_list [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (PV.to_list (PV.union a b));
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (PV.to_list (PV.inter a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (PV.to_list (PV.diff a b));
  check_bool "subset" true (PV.subset (PV.of_list [ 2; 3 ]) a);
  check_bool "not subset" false (PV.subset b a)

let test_pv_bounds () =
  check_bool "port 15 ok" true (PV.mem 15 (PV.singleton 15));
  Alcotest.check_raises "port 16"
    (Invalid_argument "Port_vector: port 16 out of range") (fun () ->
      ignore (PV.singleton 16));
  check_int "full 12" 13 (PV.count (PV.full ~n_ports:12))

let pv_qcheck =
  QCheck.Test.make ~name:"port vector of_list/to_list" ~count:300
    QCheck.(small_list (int_bound 15))
    (fun l ->
      PV.to_list (PV.of_list l) = List.sort_uniq Int.compare l)

(* ------------------------------------------------------------------ *)
(* Forwarding table *)

let addr = Short_address.of_int

(* The switch edits its live table through its spec. *)
let set t ~in_port ~dst e = Tables.set (FT.spec t) ~in_port ~dst e

let unset t ~in_port ~dst = set t ~in_port ~dst Tables.discard

let unicast v = Tables.entry ~broadcast:false v

let test_ft_default_discard () =
  let t = FT.create ~max_ports:12 in
  let e = FT.lookup t ~in_port:3 ~dst:(addr 0x100) in
  check_bool "discard" true (Tables.broadcast e && PV.is_empty (Tables.vector e))

let test_ft_set_lookup () =
  let t = FT.create ~max_ports:12 in
  set t ~in_port:2 ~dst:(addr 0x123) (unicast (PV.of_list [ 4; 5 ]));
  let e = FT.lookup t ~in_port:2 ~dst:(addr 0x123) in
  Alcotest.(check (list int)) "ports" [ 4; 5 ] (PV.to_list (Tables.vector e));
  check_bool "not broadcast" false (Tables.broadcast e);
  (* A different in-port does not see the entry. *)
  let e' = FT.lookup t ~in_port:3 ~dst:(addr 0x123) in
  check_bool "per in-port" true (PV.is_empty (Tables.vector e'))

let test_ft_one_hop_constant () =
  let t = FT.create ~max_ports:12 in
  FT.load_constant t;
  (* From the control processor, one-hop address k goes out port k. *)
  for k = 1 to 12 do
    let e = FT.lookup t ~in_port:0 ~dst:(Short_address.one_hop ~port:k) in
    Alcotest.(check (list int)) "out k" [ k ] (PV.to_list (Tables.vector e))
  done;
  (* From any other port it goes to the control processor. *)
  let e = FT.lookup t ~in_port:7 ~dst:(Short_address.one_hop ~port:3) in
  Alcotest.(check (list int)) "to cp" [ 0 ] (PV.to_list (Tables.vector e))

let test_ft_unset_and_rows () =
  let t = FT.create ~max_ports:12 in
  set t ~in_port:1 ~dst:(addr 0x10) (unicast (PV.singleton 2));
  set t ~in_port:1 ~dst:(addr 0x20) (unicast (PV.singleton 3));
  check_bool "has row" true (FT.has_row t ~in_port:1);
  check_int "rows" 2 (List.length (FT.rows_of t ~in_port:1));
  unset t ~in_port:1 ~dst:(addr 0x10);
  check_int "one left" 1 (List.length (FT.rows_of t ~in_port:1));
  check_bool "no row elsewhere" false (FT.has_row t ~in_port:2)

let test_ft_rejects_bad_ports () =
  let raises what f =
    check_bool what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "create 0" (fun () -> ignore (FT.create ~max_ports:0));
  raises "create 16" (fun () -> ignore (FT.create ~max_ports:16));
  let t = FT.create ~max_ports:12 in
  List.iter
    (fun in_port ->
      let at = Printf.sprintf " in_port %d" in_port in
      raises ("lookup" ^ at) (fun () -> ignore (FT.lookup t ~in_port ~dst:(addr 0x10)));
      raises ("has_row" ^ at) (fun () -> ignore (FT.has_row t ~in_port));
      raises ("rows_of" ^ at) (fun () -> ignore (FT.rows_of t ~in_port)))
    [ -1; 13; 16 ]

let test_ft_set_empty_is_discard () =
  let t = FT.create ~max_ports:12 in
  FT.load_constant t;
  let n = FT.entry_count t in
  set t ~in_port:2 ~dst:(addr 0x30) (unicast PV.empty);
  let e = FT.lookup t ~in_port:2 ~dst:(addr 0x30) in
  check_bool "discard" true (e = Tables.discard);
  check_int "entry_count unchanged" n (FT.entry_count t);
  check_bool "no row" false
    (List.exists (fun (a, _) -> a = addr 0x30) (FT.rows_of t ~in_port:2))

(* A lookup returns the stored word itself.  Every in-port of switch 0's
   loaded table on a 16x16 torus with 2 hosts per switch, against 200
   destinations: one address on each of switch numbers 1..200, at port
   [i mod 16] (so some slots are absent). *)
let test_ft_lookup_allocates_nothing () =
  let module B = Autonet_topo.Builders in
  let c =
    Testlib.configure (B.attach_hosts (B.torus ~rows:16 ~cols:16 ()) ~per_switch:2)
  in
  let max_ports = Autonet_core.Graph.max_ports c.Testlib.graph in
  let ft = FT.create ~max_ports in
  FT.load_spec ft (List.hd c.Testlib.specs);
  let dsts = Array.init 200 (fun i -> addr (((i + 1) lsl 4) lor (i land 15))) in
  let ask () =
    for in_port = 0 to max_ports do
      for i = 0 to Array.length dsts - 1 do
        ignore (Sys.opaque_identity (FT.lookup ft ~in_port ~dst:dsts.(i)))
      done
    done
  in
  ask ();
  let w0 = Gc.minor_words () in
  ask ();
  let words = Gc.minor_words () -. w0 in
  let lookups = (max_ports + 1) * Array.length dsts in
  let report =
    Printf.sprintf
      "forwarding table: %.2f minor words per lookup over %d lookups \
       (bar 0, OCaml %s)"
      (words /. float_of_int lookups) lookups Sys.ocaml_version
  in
  print_endline report;
  if words > 0. then Alcotest.fail report

(* The tables a switch loads stay what the older two-renderer design
   loaded: the spec's entries plus the constant one-hop block wherever
   the spec had none.  On the nine families of [autonet-topo check] and
   torus:16,16, with 0 and 2 hosts per switch, every loaded table must
   equal that rule's output, every one-hop slot at in-ports 0..max_ports
   must already be the spec's (the build draws the whole block), and no
   built entry may differ from the block. *)
let test_ft_loads_keep_one_hop_rule () =
  let module B = Autonet_topo.Builders in
  let slots = ref 0 and held = ref 0 and conflicts = ref 0 in
  List.iter
    (fun topo ->
      List.iter
        (fun hosts ->
          let c = Testlib.configure (B.of_spec topo ~seed:1L ~hosts) in
          let max_ports = Autonet_core.Graph.max_ports c.Testlib.graph in
          let block = Tables.constant ~switch:0 ~max_ports in
          List.iter
            (fun spec ->
              let rule = Tables.copy ~switch:(Tables.switch spec) spec in
              for in_port = 0 to max_ports do
                for k = 1 to max_ports do
                  let dst = Short_address.one_hop ~port:k in
                  let e = Tables.lookup spec ~in_port ~dst
                  and want = Tables.lookup block ~in_port ~dst in
                  incr slots;
                  if e = Tables.discard then Tables.set rule ~in_port ~dst want
                  else begin
                    incr held;
                    if e <> want then incr conflicts
                  end
                done
              done;
              let ft = FT.create ~max_ports in
              FT.load_spec ft spec;
              if not (Tables.equal_spec (FT.spec ft) rule) then
                Alcotest.failf "%s, %d hosts: s%d's loaded table breaks the rule"
                  topo hosts (Tables.switch spec))
            c.Testlib.specs)
        [ 0; 2 ])
    [ "src"; "figure9"; "line:5"; "ring:6"; "star:4"; "tree:2,3"; "mesh:3,4";
      "torus:4,8"; "random:16,8"; "torus:16,16" ];
  Printf.printf "one-hop slots: %d, held by the build: %d, conflicts: %d\n"
    !slots !held !conflicts;
  check_int "one-hop slots" 119_184 !slots;
  check_int "held by the build" !slots !held;
  check_int "conflicts" 0 !conflicts

(* [load_spec] writes no entry: the table reads back exactly the entries
   the spec folds over, the constant one-hop rows being the built spec's
   own. *)
let ft_load_spec_equivalent =
  QCheck.Test.make
    ~name:"load_spec reads back the spec only; has_row agrees"
    ~count:40 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Autonet_sim.Rng.create ~seed:(Int64.of_int seed) in
      let c = Testlib.configure (Testlib.random_topology rng ~max_n:8) in
      let max_ports = Autonet_core.Graph.max_ports c.Testlib.graph in
      List.for_all
        (fun spec ->
          let expected = Hashtbl.create 256 in
          Tables.fold spec ~init:() ~f:(fun () ~in_port ~dst e ->
              Hashtbl.replace expected (in_port, dst) e);
          let entries sp =
            Tables.fold sp ~init:[] ~f:(fun acc ~in_port ~dst e ->
                ((in_port, dst), e) :: acc)
          in
          let source_before = entries spec in
          let t = FT.create ~max_ports in
          FT.load_spec t spec;
          (* Pages are shared copy-on-write in both directions: the edits
             below must reach neither the source nor a copy of the live
             table taken now. *)
          let snapshot = Tables.copy ~switch:(Tables.switch spec) (FT.spec t) in
          let snapshot_before = entries snapshot in
          let rows =
            List.concat_map
              (fun in_port ->
                List.map (fun (a, e) -> ((in_port, a), e)) (FT.rows_of t ~in_port))
              (List.init (max_ports + 1) Fun.id)
          in
          let sorted l = List.sort compare l in
          (* [has_row] stops at the first entry; it must still agree with
             the row, here and after edits that empty or refill rows. *)
          let rows_agree () =
            List.for_all
              (fun in_port ->
                FT.has_row t ~in_port = (FT.rows_of t ~in_port <> []))
              (List.init (max_ports + 1) Fun.id)
          in
          let agree_loaded = rows_agree () in
          let reads_back =
            FT.entry_count t = Hashtbl.length expected
            && sorted rows = sorted (List.of_seq (Hashtbl.to_seq expected))
            && Hashtbl.fold
                 (fun (in_port, dst) e ok -> ok && FT.lookup t ~in_port ~dst = e)
                 expected true
          in
          let in_port = seed mod (max_ports + 1) in
          List.iter
            (fun (dst, _) -> unset t ~in_port ~dst)
            (FT.rows_of t ~in_port);
          let agree_emptied = rows_agree () && not (FT.has_row t ~in_port) in
          (* One entry in switch number 1's page, at any address of its
             block, then one in the special addresses' page. *)
          let e = unicast (PV.singleton 1) in
          let dst = Short_address.of_int (0x10 + (seed mod 16)) in
          set t ~in_port ~dst e;
          let agree_block = rows_agree () in
          unset t ~in_port ~dst;
          set t ~in_port ~dst:Short_address.loopback e;
          let all_rows =
            List.concat_map
              (fun in_port -> FT.rows_of t ~in_port)
              (List.init (max_ports + 1) Fun.id)
          in
          reads_back && agree_loaded && agree_emptied && agree_block
          && rows_agree ()
          && entries spec = source_before
          && entries snapshot = snapshot_before
          && FT.entry_count t = List.length all_rows)
        c.Testlib.specs)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_sched_alternative_lowest () =
  let s = Sch.create () in
  check_bool "accepted" true
    (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 5; 3; 7 ]) ~broadcast:false);
  match Sch.round s ~free:(PV.of_list [ 3; 5; 7 ]) with
  | [ g ] ->
    check_int "in" 1 g.Sch.in_port;
    Alcotest.(check (list int)) "lowest" [ 3 ] (PV.to_list g.Sch.out_ports)
  | gs -> Alcotest.failf "expected one grant, got %d" (List.length gs)

let test_sched_head_of_line () =
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  check_bool "second refused" false
    (Sch.request s ~in_port:1 ~vector:(PV.singleton 6) ~broadcast:false);
  check_bool "has request" true (Sch.has_request s ~in_port:1)

let test_sched_fcfc_order () =
  (* Older request gets first claim on a contested port. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton 5) ~broadcast:false);
  (match Sch.round s ~free:(PV.singleton 5) with
  | [ g ] -> check_int "older wins" 1 g.Sch.in_port
  | _ -> Alcotest.fail "one grant expected");
  match Sch.round s ~free:(PV.singleton 5) with
  | [ g ] -> check_int "younger next" 2 g.Sch.in_port
  | _ -> Alcotest.fail "one grant expected"

let test_sched_queue_jumping () =
  (* A younger request whose port is free is served even while an older
     request waits for a busy port. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton 6) ~broadcast:false);
  match Sch.round s ~free:(PV.singleton 6) with
  | [ g ] ->
    check_int "younger jumped" 2 g.Sch.in_port;
    check_int "older still queued" 1 (Sch.pending s)
  | _ -> Alcotest.fail "one grant expected"

let test_sched_fcfs_blocks () =
  (* The strict ablation: a younger request waits behind an older one even
     when its own port is free. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton 6) ~broadcast:false);
  check_int "no grant" 0 (List.length (Sch.round_fcfs s ~free:(PV.singleton 6)));
  match Sch.round_fcfs s ~free:(PV.of_list [ 5; 6 ]) with
  | [ a; b ] ->
    check_int "older first" 1 a.Sch.in_port;
    check_int "then younger" 2 b.Sch.in_port
  | gs -> Alcotest.failf "expected two grants, got %d" (List.length gs)

let test_sched_broadcast_accumulates () =
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 4; 5 ]) ~broadcast:true);
  (* First round: only port 4 free — captured, not granted. *)
  check_int "no grant yet" 0 (List.length (Sch.round s ~free:(PV.singleton 4)));
  check_int "still queued" 1 (Sch.pending s);
  (* Second round: port 5 frees; the broadcast completes. *)
  match Sch.round s ~free:(PV.singleton 5) with
  | [ g ] ->
    check_bool "broadcast grant" true g.Sch.broadcast;
    Alcotest.(check (list int)) "both ports" [ 4; 5 ] (PV.to_list g.Sch.out_ports)
  | _ -> Alcotest.fail "broadcast grant expected"

let test_sched_broadcast_reserves_from_younger () =
  (* Ports captured by a waiting broadcast are invisible to younger
     requests, preventing starvation (paper 6.4). *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 4; 5 ]) ~broadcast:true);
  ignore (Sch.round s ~free:(PV.singleton 4));
  (* Port 4 is now reserved by the broadcast. *)
  ignore (Sch.request s ~in_port:2 ~vector:(PV.singleton 4) ~broadcast:false);
  check_int "younger blocked" 0 (List.length (Sch.round s ~free:(PV.singleton 4)));
  (* Completing the broadcast releases it. *)
  ignore (Sch.round s ~free:(PV.singleton 5));
  match Sch.round s ~free:(PV.singleton 4) with
  | [ g ] -> check_int "younger served after" 2 g.Sch.in_port
  | _ -> Alcotest.fail "grant expected"

let test_sched_discard_entry_grants_empty () =
  (* The all-zeroes broadcast entry (discard) completes immediately. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:3 ~vector:PV.empty ~broadcast:true);
  match Sch.round s ~free:PV.empty with
  | [ g ] ->
    check_int "in port" 3 g.Sch.in_port;
    check_bool "no ports" true (PV.is_empty g.Sch.out_ports)
  | _ -> Alcotest.fail "discard grant expected"

let test_sched_cancel () =
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.singleton 5) ~broadcast:false);
  Sch.cancel s ~in_port:1;
  check_int "cancelled" 0 (Sch.pending s);
  check_int "no grants" 0 (List.length (Sch.round s ~free:(PV.singleton 5)))

let test_sched_no_starvation_property () =
  (* Under adversarial younger traffic, an old broadcast request finishes
     once its ports have each been free at least once. *)
  let s = Sch.create () in
  ignore (Sch.request s ~in_port:1 ~vector:(PV.of_list [ 2; 3; 4 ]) ~broadcast:true);
  let granted = ref false in
  (* Ports free one at a time, with younger unicast churn in between. *)
  List.iteri
    (fun i free ->
      ignore (Sch.request s ~in_port:(5 + (i mod 3)) ~vector:(PV.of_list [ 6; 7 ]) ~broadcast:false);
      List.iter
        (fun g -> if g.Sch.in_port = 1 then granted := true)
        (Sch.round s ~free))
    [ PV.of_list [ 2; 6 ]; PV.of_list [ 3; 7 ]; PV.of_list [ 6; 7 ]; PV.of_list [ 4 ] ];
  check_bool "broadcast eventually granted" true !granted

(* ------------------------------------------------------------------ *)
(* Crossbar *)

let test_xb_connect_release () =
  let x = XB.create ~max_ports:12 in
  XB.connect x ~in_port:1 ~out_ports:(PV.of_list [ 3; 4 ]);
  check_bool "source 3" true (XB.source_of x ~out_port:3 = Some 1);
  check_bool "source 4" true (XB.source_of x ~out_port:4 = Some 1);
  Alcotest.(check (list int)) "outputs" [ 3; 4 ] (PV.to_list (XB.outputs_of x ~in_port:1));
  XB.release_output x ~out_port:3;
  check_bool "released" true (XB.source_of x ~out_port:3 = None);
  Alcotest.(check (list int)) "one left" [ 4 ] (PV.to_list (XB.outputs_of x ~in_port:1))

let test_xb_busy_refused () =
  let x = XB.create ~max_ports:12 in
  XB.connect x ~in_port:1 ~out_ports:(PV.singleton 3);
  Alcotest.check_raises "busy" (Invalid_argument "Crossbar.connect: output 3 busy")
    (fun () -> XB.connect x ~in_port:2 ~out_ports:(PV.singleton 3))

let test_xb_free_outputs () =
  let x = XB.create ~max_ports:3 in
  XB.connect x ~in_port:1 ~out_ports:(PV.of_list [ 0; 2 ]);
  Alcotest.(check (list int)) "busy" [ 0; 2 ] (PV.to_list (XB.busy_outputs x));
  Alcotest.(check (list int)) "free" [ 1; 3 ] (PV.to_list (XB.free_outputs x))

let test_xb_release_input () =
  let x = XB.create ~max_ports:12 in
  XB.connect x ~in_port:1 ~out_ports:(PV.of_list [ 3; 4 ]);
  XB.connect x ~in_port:2 ~out_ports:(PV.singleton 5);
  XB.release_input x ~in_port:1;
  check_bool "both gone" true (PV.to_list (XB.busy_outputs x) = [ 5 ])

let () =
  Alcotest.run "switch"
    [ ( "port_vector",
        [ Alcotest.test_case "basics" `Quick test_pv_basics;
          Alcotest.test_case "set ops" `Quick test_pv_set_operations;
          Alcotest.test_case "bounds" `Quick test_pv_bounds;
          QCheck_alcotest.to_alcotest pv_qcheck ] );
      ( "forwarding_table",
        [ Alcotest.test_case "default discard" `Quick test_ft_default_discard;
          Alcotest.test_case "set/lookup" `Quick test_ft_set_lookup;
          Alcotest.test_case "one-hop constant" `Quick test_ft_one_hop_constant;
          Alcotest.test_case "unset and rows" `Quick test_ft_unset_and_rows;
          Alcotest.test_case "rejects bad ports" `Quick test_ft_rejects_bad_ports;
          Alcotest.test_case "set empty is discard" `Quick
            test_ft_set_empty_is_discard;
          Alcotest.test_case "lookup allocates nothing" `Quick
            test_ft_lookup_allocates_nothing;
          Alcotest.test_case "loads keep the one-hop rule on 10 specs" `Quick
            test_ft_loads_keep_one_hop_rule;
          QCheck_alcotest.to_alcotest ft_load_spec_equivalent ] );
      ( "scheduler",
        [ Alcotest.test_case "alternative lowest" `Quick test_sched_alternative_lowest;
          Alcotest.test_case "head of line" `Quick test_sched_head_of_line;
          Alcotest.test_case "fcfc order" `Quick test_sched_fcfc_order;
          Alcotest.test_case "queue jumping" `Quick test_sched_queue_jumping;
          Alcotest.test_case "strict fcfs blocks" `Quick test_sched_fcfs_blocks;
          Alcotest.test_case "broadcast accumulates" `Quick
            test_sched_broadcast_accumulates;
          Alcotest.test_case "broadcast reserves" `Quick
            test_sched_broadcast_reserves_from_younger;
          Alcotest.test_case "discard grants empty" `Quick
            test_sched_discard_entry_grants_empty;
          Alcotest.test_case "cancel" `Quick test_sched_cancel;
          Alcotest.test_case "no starvation" `Quick test_sched_no_starvation_property ] );
      ( "crossbar",
        [ Alcotest.test_case "connect/release" `Quick test_xb_connect_release;
          Alcotest.test_case "busy refused" `Quick test_xb_busy_refused;
          Alcotest.test_case "free outputs" `Quick test_xb_free_outputs;
          Alcotest.test_case "release input" `Quick test_xb_release_input ] ) ]

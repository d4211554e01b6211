(* E17: what the telemetry subsystem itself costs.

   A network runs in one of the two modes
   {!Autonet.Network.telemetry_mode} offers:

   - [`Disabled] (the default): no registry or timeline exists, so every
     instrument hit in the pilots' paths is one branch on [None];
   - [`On]: everything counts, including the per-switch epoch-start,
     position and skeptic marks the causal view replays.  Flight
     recorders are the event logs' tails, rendered only when dumped, so
     neither mode pays for them during a run.

   This experiment prices [`On] against [`Disabled] with wall-clock runs
   of a full boot plus one link-failure reconfiguration.  The runs are
   seeded identically, so both modes execute the same simulation event
   for event; any wall-clock difference is the instrumentation.  Rounds
   interleave the modes so clock drift and thermal effects hit both
   equally, and the median over rounds is reported. *)

module B = Autonet_topo.Builders
module N = Autonet.Network
module F = Autonet_topo.Faults
module Graph = Autonet_core.Graph
module Params = Autonet_autopilot.Params
module Time = Autonet_sim.Time
module Report = Autonet_analysis.Report

type overhead = {
  o_topo : string;
  o_repeats : int;
  o_disabled_s : float;  (** median wall seconds, no instruments (default) *)
  o_on_s : float;  (** everything counting *)
}

let on_pct o = 100.0 *. (o.o_on_s -. o.o_disabled_s) /. o.o_disabled_s

(* One full cycle: boot to convergence, then fail the first link and
   reconverge.  Identical seeds make both modes run the same simulation,
   so the wall-clock delta is the instrumentation cost. *)
let run_once ~telemetry build =
  let t0 = Unix.gettimeofday () in
  let net = N.create ~params:Params.fast ~seed:1L ~telemetry (build ()) in
  N.start net;
  (match N.run_until_converged ~timeout:(Time.s 300) net with
  | Some _ -> ()
  | None -> failwith "e17: boot did not converge");
  let l = List.hd (Graph.links (N.graph net)) in
  (match
     N.measure_reconfiguration ~timeout:(Time.s 300) net ~trigger:(fun net ->
         N.apply_fault net (F.Link_down l.Graph.id))
   with
  | Some _ -> ()
  | None -> failwith "e17: did not reconverge after the fault");
  Unix.gettimeofday () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let measure_overhead ~repeats ~topo build =
  (* Start from a compacted heap (the bechamel suite may have run just
     before us) and warm the allocator and the code paths once before
     anything is timed. *)
  Gc.compact ();
  ignore (run_once ~telemetry:`Disabled build);
  let dis = ref [] and on = ref [] in
  for _ = 1 to repeats do
    dis := run_once ~telemetry:`Disabled build :: !dis;
    on := run_once ~telemetry:`On build :: !on
  done;
  { o_topo = topo;
    o_repeats = repeats;
    o_disabled_s = median !dis;
    o_on_s = median !on }

let e17 () =
  Exp_common.section
    "E17: telemetry overhead (boot + one reconfiguration, wall clock)";
  let cases =
    [ ("SRC LAN", 5, fun () -> B.src_service_lan ());
      ("torus 16x16", 3, fun () -> B.torus ~rows:16 ~cols:16 ()) ]
  in
  let r =
    Report.create
      ~title:
        "wall seconds (median of interleaved repeats; identical seeds, so \
         the delta is the instrumentation)"
      ~columns:[ "topology"; "repeats"; "disabled"; "on"; "on ovh" ]
  in
  List.iter
    (fun (topo, repeats, build) ->
      let o = measure_overhead ~repeats ~topo build in
      Report.add_row r
        [ o.o_topo;
          string_of_int o.o_repeats;
          Printf.sprintf "%.3f s" o.o_disabled_s;
          Printf.sprintf "%.3f s" o.o_on_s;
          Printf.sprintf "%+.2f%%" (on_pct o) ])
    cases;
  Report.print r

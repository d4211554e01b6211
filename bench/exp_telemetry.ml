(* E17: what the telemetry subsystem itself costs.

   The instrumentation is designed to be left compiled into the hot
   paths: a disabled counter bump is one load and one branch, and so is
   a disabled timeline mark.  This experiment prices that claim with
   wall-clock runs of a full boot plus one link-failure
   reconfiguration, in the three modes {!Autonet.Network.telemetry_mode}
   offers:

   - [`Off]: no registry or timeline exists — the pilots hold no
     instruments at all (the compiled-out baseline);
   - [`Disabled]: every instrument exists but counts nothing (the
     default shipping configuration);
   - [`On]: everything counts, including the per-switch epoch-start,
     position and skeptic marks the causal view replays.  Flight
     recorders are the event logs' tails, rendered only when dumped, so
     no mode pays for them during a run.

   The runs are seeded identically, so all three modes execute the same
   simulation event for event; any wall-clock difference is the
   instrumentation.  Rounds interleave the modes (off, disabled, on,
   off, ...) so clock drift and thermal effects hit all three equally,
   and the median over rounds is reported.  The acceptance bar — also
   recorded in BENCH_micro.json — is disabled overhead under 3%. *)

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
  o_off_s : float;  (** median wall seconds, telemetry compiled out *)
  o_disabled_s : float;  (** instruments present but off (the default) *)
  o_on_s : float;  (** everything counting *)
}

let pct base v = 100.0 *. (v -. base) /. base

(* The raw disabled-vs-off delta is regularly below timer noise and can
   come out negative (the two runs execute the same events; -2% does not
   mean the instruments sped anything up).  Report the overhead clamped
   at zero and keep the raw signed delta alongside, so the headline
   number never claims a nonsensical negative cost while the noise floor
   stays visible. *)
let raw_disabled_pct o = pct o.o_off_s o.o_disabled_s
let disabled_pct o = Float.max 0.0 (raw_disabled_pct o)
let on_pct o = pct o.o_off_s o.o_on_s

(* One full cycle: boot to convergence, then fail the first link and
   reconverge.  Identical seeds make the three modes run the same
   simulation, so the wall-clock delta is the instrumentation cost. *)
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
     before us) and warm the domain pool, the allocator and the code
     paths once before anything is timed. *)
  Gc.compact ();
  ignore (run_once ~telemetry:`Off build);
  let off = ref [] and dis = ref [] and on = ref [] in
  for _ = 1 to repeats do
    off := run_once ~telemetry:`Off build :: !off;
    dis := run_once ~telemetry:`Disabled build :: !dis;
    on := run_once ~telemetry:`On build :: !on
  done;
  { o_topo = topo;
    o_repeats = repeats;
    o_off_s = median !off;
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
      ~columns:
        [ "topology"; "repeats"; "off"; "disabled"; "on"; "disabled ovh";
          "on ovh" ]
  in
  let worst = ref (neg_infinity, "") in
  List.iter
    (fun (topo, repeats, build) ->
      let o = measure_overhead ~repeats ~topo build in
      if disabled_pct o > fst !worst then worst := (disabled_pct o, topo);
      Report.add_row r
        [ o.o_topo;
          string_of_int o.o_repeats;
          Printf.sprintf "%.3f s" o.o_off_s;
          Printf.sprintf "%.3f s" o.o_disabled_s;
          Printf.sprintf "%.3f s" o.o_on_s;
          Printf.sprintf "%.2f%% (raw %+.2f%%)" (disabled_pct o)
            (raw_disabled_pct o);
          Printf.sprintf "%+.2f%%" (on_pct o) ])
    cases;
  Report.print r;
  let worst_pct, worst_topo = !worst in
  if worst_pct < 3.0 then
    Printf.printf
      "assert: disabled telemetry+tracing overhead %.2f%% (worst, %s) < 3%% \
       -- PASS\n\n"
      worst_pct worst_topo
  else begin
    Printf.printf
      "assert: disabled telemetry+tracing overhead %.2f%% (worst, %s) >= 3%% \
       -- FAIL\n\n"
      worst_pct worst_topo;
    exit 1
  end

(* The simulator's own profile: where one reconfiguration's CPU time and
   allocation go.

   A fixed-work driver: the 16x16 torus with two hosts per switch,
   [Params.fast], seed 1, booted, then [flaps] seeded
   non-tree link flaps (down, reconverge, up, reconverge: two
   reconfigurations each, all on the delta path).  The flaps run twice
   over the same links:

   - the counted pass reads the engine's event and run counts, the
     fabric's packet and byte counts, [Gc.minor_words] and
     [Gc.quick_stat] around the flaps and prints their
     per-reconfiguration means: events, runs the event queue opened,
     packets, bytes, minor words, promoted words, words allocated
     directly in the major heap (major minus promoted), minor and major
     collections.  A simulated network runs on the calling domain, so
     these are work counters of the binary, the same on every run and at
     any [AUTONET_DOMAINS].  Minor words come from [Gc.minor_words],
     which counts the minor heap in use: [Gc.quick_stat]'s count stops
     at the last minor collection, so it moves with the collections'
     phase (OCAMLRUNPARAM=s=300k moved it by -5.7 k words per
     reconfiguration with the same binary);
   - the sampled pass arms a SIGALRM interval timer and, in the handler,
     records the OCaml call stack ([Printexc.get_callstack]); the table
     ranks functions by the share of samples whose stack contains them
     (inclusive) and that they top (self).

   The sampler's bias: a handler runs only at a safepoint (an allocation
   or a loop's poll), so samples land on the next safepoint after the
   tick, and time spent in the garbage collector is charged to whichever
   frame allocated when the collection started.  Wall-clock, so only a
   quiet machine gives stable shares.

   Run: [make profile], or [dune exec bench/main.exe -- profile]. *)

module B = Autonet_topo.Builders
module F = Autonet_topo.Faults
module N = Autonet.Network
module Rng = Autonet_sim.Rng
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time
module Fabric = Autonet_autopilot.Fabric
open Autonet_core

let flaps = 10
let interval_s = 0.001
let depth = 256
let top = 40

(* The seeded non-tree links of the boot graph's reference tree. *)
let flap_links g =
  let tree = Spanning_tree.compute g ~member:0 in
  let non_tree =
    Array.of_list
      (List.filter
         (fun (l : Graph.link) ->
           (not (Graph.is_loop l)) && not (Spanning_tree.is_tree_link tree l.id))
         (Graph.links g))
  in
  let rng = Rng.create ~seed:1L in
  List.init flaps (fun _ -> non_tree.(Rng.int rng (Array.length non_tree)).Graph.id)

let reconfigure net ev =
  match N.measure_reconfiguration net ~trigger:(fun t -> N.apply_fault t ev) with
  | Some _ -> ()
  | None ->
    prerr_endline "profile: a link flap did not reconverge";
    exit 1

let run_flaps net links =
  List.iter
    (fun l ->
      reconfigure net (F.Link_down l);
      reconfigure net (F.Link_up l))
    links

(* --- Counted pass --------------------------------------------------------- *)

let counted net links =
  let reconfigs = float_of_int (2 * List.length links) in
  let engine = N.engine net and fabric = N.fabric net in
  let events0 = Engine.events_executed engine in
  let runs0 = Engine.runs_opened engine in
  let f0 = Fabric.stats fabric in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  run_flaps net links;
  let wall = Unix.gettimeofday () -. t0 in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  let f1 = Fabric.stats fabric in
  let per x = float_of_int x /. reconfigs in
  let perf x = x /. reconfigs in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  let major = g1.Gc.major_words -. g0.Gc.major_words in
  Printf.printf "per reconfiguration (%.0f reconfigurations, counted pass):\n"
    reconfigs;
  let row name v = Printf.printf "  %-22s %14.1f\n" name v in
  row "events" (per (Engine.events_executed engine - events0));
  row "event-queue runs" (per (Engine.runs_opened engine - runs0));
  row "packets" (per (f1.Fabric.packets_sent - f0.Fabric.packets_sent));
  row "bytes" (per (f1.Fabric.bytes_sent - f0.Fabric.bytes_sent));
  row "minor words" (perf (w1 -. w0));
  row "promoted words" (perf promoted);
  row "direct-major words" (perf (major -. promoted));
  row "minor collections"
    (per (g1.Gc.minor_collections - g0.Gc.minor_collections));
  row "major collections"
    (per (g1.Gc.major_collections - g0.Gc.major_collections));
  Printf.printf "  %-22s %14.1f  (wall clock, not a work counter)\n" "wall ms"
    (1000. *. wall /. reconfigs)

(* --- Sampled pass --------------------------------------------------------- *)

let own_frame name =
  String.starts_with ~prefix:"Dune__exe__Exp_profile" name
  || String.starts_with ~prefix:"Dune__exe__Main" name
  || String.starts_with ~prefix:"Stdlib__Printexc" name
  || String.starts_with ~prefix:"Stdlib__Sys" name

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

let sampled net links =
  let inclusive = Hashtbl.create 512 and self = Hashtbl.create 512 in
  let samples = ref 0 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let on_tick _ =
    match Printexc.backtrace_slots (Printexc.get_callstack depth) with
    | None -> ()
    | Some slots ->
      incr samples;
      let names =
        List.filter
          (fun n -> not (own_frame n))
          (List.map frame_name (Array.to_list slots))
      in
      (match names with n :: _ -> bump self n | [] -> ());
      List.iter (bump inclusive) (List.sort_uniq String.compare names)
  in
  let timer v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = v; Unix.it_value = v })
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle on_tick) in
  timer interval_s;
  Fun.protect
    ~finally:(fun () ->
      timer 0.;
      Sys.set_signal Sys.sigalrm previous)
    (fun () -> run_flaps net links);
  let n = !samples in
  let pct c = 100. *. float_of_int c /. float_of_int (Stdlib.max 1 n) in
  let ranked =
    List.sort
      (fun (a, x) (b, y) -> match Int.compare y x with 0 -> compare a b | c -> c)
      (Hashtbl.fold (fun k c acc -> (k, c) :: acc) inclusive [])
  in
  Printf.printf
    "\ncall stacks (sampled pass, %d samples every %.0f ms of wall clock):\n"
    n (1000. *. interval_s);
  Printf.printf "  %6s %6s  %s\n" "incl%" "self%" "function";
  List.iteri
    (fun i (name, c) ->
      if i < top then
        Printf.printf "  %6.1f %6.1f  %s\n" (pct c)
          (pct (Option.value ~default:0 (Hashtbl.find_opt self name)))
          name)
    ranked

let run () =
  let topo = B.attach_hosts (B.torus ~rows:16 ~cols:16 ()) ~per_switch:2 in
  let net = N.create ~params:Autonet_autopilot.Params.fast ~seed:1L topo in
  N.start net;
  if N.run_until_converged ~timeout:(Time.s 120) net = None then begin
    prerr_endline "profile: the torus did not converge at boot";
    exit 1
  end;
  let links = flap_links (N.graph net) in
  Printf.printf
    "profile: torus:16,16, 2 hosts per switch, Params.fast, seed 1, %d \
     non-tree link flaps per pass\n"
    flaps;
  counted net links;
  sampled net links

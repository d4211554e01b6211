(* e2e: the end-to-end, layer-attributed benchmark of the simulator.

     e2e.exe run   --workload W [--seed S] [--seconds N]
     e2e.exe trace --workload W [--seed S] [--out DIR]
     e2e.exe smoke [--domains 1,2]

   [run] measures a workload with tracing off and prints its end-to-end
   metrics; [trace] re-runs it driving the simulation one event at a time
   and prints the per-layer metrics; [smoke] runs every workload at tiny
   sizes and prints only deterministic fields, and with several domain
   counts re-runs itself once per count and byte-compares the outputs.
   The last line of [run] and [trace] is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  See README.md. *)

module Json = Autonet_telemetry.Json
module Stats = Autonet_analysis.Stats
module Pool = Autonet_parallel.Pool
open Work

let usage () =
  prerr_endline
    "usage: e2e.exe (run|trace) --workload W [--seed S] [--seconds N] \
     [--trace 0|1] [--out DIR]\n\
    \       e2e.exe smoke [--domains 1,2]\n\
     workloads: torus256_flap src_faults src_chaos fuzz_random";
  exit 2

let cores = Domain.recommended_domain_count ()

let shape () =
  Printf.sprintf "cores=%d domains=%d ocaml=%s" cores !domains Sys.ocaml_version

(* Every pool, including the simulator's shared one, gets the same
   domain count; it must be set before the first [Pool.default ()]. *)
let pin_domains d =
  domains := d;
  Unix.putenv "AUTONET_DOMAINS" (string_of_int d)

let pct xs p = match xs with [] -> 0. | _ -> Stats.percentile xs p
let median xs = pct xs 50.
let mean xs = match xs with [] -> 0. | _ -> Stats.mean xs
let ratio a b = if b = 0. then 0. else a /. b

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* --- Metrics ----------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float; det : bool }

let m ?(det = false) name unit_ value = { name; unit_; value; det }

(* The end-to-end metrics, from the untraced leg.  [ops_per_s] counts the
   workload's unit of work: reconfigurations, schedules or executions. *)
let end_to_end (u : untraced) ~heap =
  [ m "setup_s" "s" (median u.u_setup);
    m "ops_per_s" "1/s" (ratio (float_of_int u.u_units) u.u_work);
    m "peak_heap_mb" "MB" heap ]

(* What [run] prints besides the contract metrics: the workload's own
   names for its figures. *)
let workload_figures (w : Work.t) (u : untraced) =
  let rate = ratio (float_of_int u.u_units) u.u_work in
  let fail_frac = ratio (float_of_int u.u_failed) (float_of_int u.u_units) in
  (match w.kind with
  | Single _ ->
    [ m "reconfig_wall_s_p50" "s" (median u.u_walls);
      m "reconfig_wall_s_p90" "s" (pct u.u_walls 90.);
      m ~det:true "sim_reconfig_ms_p50" "ms" (median u.u_sims);
      m "reconfigs_per_s" "1/s" rate ]
  | Campaign _ -> [ m "schedules_per_s" "1/s" rate ]
  | Fuzzing _ ->
    [ m "execs_per_s" "1/s" rate;
      m ~det:true "coverage_cells" "count" (float_of_int u.u_cells) ])
  @ [ m ~det:true "fail_frac" "ratio" fail_frac ]

type gc_delta = { minor : float; major : float; collections : int }

let per_layer (u : untraced) (t : traced) (gc : gc_delta) =
  let r = t.t_rec in
  let n = float_of_int (max 1 t.t_units) in
  let sum k = Layers.sum r k in
  let per_unit k = sum k /. n in
  let avg k = mean (Layers.samples r k) in
  let ms x = x *. 1e3 and us x = x *. 1e6 in
  let steps = Layers.Samples.to_list r.Layers.steps in
  let heavy_ms = ms r.Layers.heavy_t /. n in
  let core_epoch_ms = ms (per_unit "core.epoch") in
  let load_ms = ms (per_unit "switch.epoch_load") in
  [ m ~det:true "sim.events" "count" (sum "sim.events");
    m ~det:true "sim.max_queue" "count" (sum "sim.max_queue");
    m "sim.step_us_p50" "us" (us (pct steps 50.));
    m "sim.step_us_p99" "us" (us (pct steps 99.));
    m "sim.heavy_events" "count" (float_of_int r.Layers.heavy_n);
    m "sim.heavy_ms" "ms" heavy_ms;
    m "sim.light_ms" "ms" (ms r.Layers.light_t /. n);
    m "sim.stepped_ms" "ms" (ms (r.Layers.stepped_t +. r.Layers.conv_t) /. n);
    m ~det:true "network.converged_calls" "count"
      (float_of_int r.Layers.conv_calls);
    m "network.converged_ms" "ms" (ms r.Layers.conv_t /. n);
    m ~det:true "fabric.packets" "count" (per_unit "fabric.packets");
    m ~det:true "fabric.bytes" "bytes" (per_unit "fabric.bytes");
    m ~det:true "messages.complete_bytes" "bytes" (avg "messages.complete_bytes");
    m "messages.complete_encode_us" "us" (us (avg "messages.complete_encode"));
    m "messages.complete_decode_us" "us" (us (avg "messages.complete_decode"));
    m ~det:true "autopilot.epochs" "count" (sum "autopilot.epochs");
    m ~det:true "autopilot.epoch_yield" "ratio"
      (ratio (sum "autopilot.completed") (sum "autopilot.epochs"));
    m ~det:true "autopilot.delta_hit_ratio" "ratio"
      (ratio (sum "autopilot.delta_hits")
         (sum "autopilot.delta_hits" +. sum "autopilot.delta_fallbacks"));
    m ~det:true "autopilot.tables_rebuilt" "count" (sum "autopilot.tables_rebuilt");
    m "autopilot.unattributed_ms" "ms" (heavy_ms -. core_epoch_ms -. load_ms);
    m "core.to_graph_us" "us" (us (avg "core.to_graph"));
    m "core.spanning_tree_us" "us" (us (avg "core.spanning_tree"));
    m "core.address_assign_us" "us" (us (avg "core.address_assign"));
    m "core.updown_us" "us" (us (avg "core.updown"));
    m "core.routes_ms" "ms" (ms (avg "core.routes"));
    m "core.tables_build_ms" "ms" (ms (avg "core.tables_build"));
    m "core.tables_build_all_ms" "ms" (ms (avg "core.tables_build_all"));
    m "core.deadlock_ms" "ms" (ms (avg "core.deadlock"));
    m "core.delta_classify_ms" "ms" (ms (avg "core.delta_classify"));
    m "core.delta_apply_ms" "ms" (ms (avg "core.delta_apply"));
    m "core.epoch_ms" "ms" core_epoch_ms;
    m ~det:true "switch.ft_entries" "count" (avg "switch.ft_entries");
    m "switch.ft_load_ms" "ms" (ms (avg "switch.ft_load"));
    m "switch.ft_read_us" "us" (us (avg "switch.ft_read"));
    m "switch.epoch_load_ms" "ms" load_ms;
    m ~det:true "pool.calls" "count" (sum "pool.calls");
    m ~det:true "pool.items" "count" (sum "pool.items");
    m "pool.steals" "count" (sum "pool.steals");
    m "chaos.create_ms" "ms" (ms (avg "chaos.create"));
    m "chaos.schedule_ms_p50" "ms" (ms (median (Layers.samples r "chaos.schedule")));
    m "chaos.oracle_ms_p50" "ms" (ms (median (Layers.samples r "chaos.oracle")));
    m "fuzz.execute_ms_p50" "ms" (ms (median (Layers.samples r "fuzz.execute")));
    m ~det:true "fuzz.corpus_yield" "ratio"
      (ratio (sum "fuzz.distinct") (sum "fuzz.executed"));
    m "gc.minor_mwords" "Mwords" (gc.minor /. 1e6);
    m "gc.major_mwords" "Mwords" (gc.major /. 1e6);
    m "gc.major_collections" "count" (float_of_int gc.collections);
    m "trace.overhead_pct" "%" (100. *. (ratio t.t_work u.u_work -. 1.));
    m "reconfig_wall_s_p50" "s" (median u.u_walls);
    m "reconfig_wall_s_p90" "s" (pct u.u_walls 90.);
    m ~det:true "sim_reconfig_ms_p50" "ms" (median u.u_sims);
    m ~det:true "coverage_cells" "count" (float_of_int u.u_cells);
    m ~det:true "fail_frac" "ratio"
      (ratio (float_of_int u.u_failed) (float_of_int u.u_units)) ]

let print_metric x =
  Printf.printf "%-28s %16.6f %-6s%s\n" x.name x.value x.unit_
    (if x.det then "  (deterministic)" else "")

let result_json ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool (failed = 0 && !mismatches = []));
      ("attempted", Json.Int (max 1 attempted));
      ("failed", Json.Int failed);
      ("metrics",
       Json.Obj
         (List.map
            (fun x ->
              ( x.name,
                Json.Obj
                  [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ] ))
            metrics)) ]

(* Print every failed check with the machine shape; true if any. *)
let report_mismatches () =
  List.iter
    (fun x ->
      Printf.printf "MISMATCH %s: measured %s, expected %s (%s)\n" x.what
        x.measured x.expected (shape ()))
    (List.rev !mismatches);
  !mismatches <> []

(* --- Modes -------------------------------------------------------------- *)

let run (w : Work.t) ~seed ~seconds =
  Printf.printf "e2e run: workload=%s seed=%d seconds=%g %s\n%!" w.name seed
    seconds (shape ());
  let u = untraced w ~seed ~setups:w.setups ~budget:(Window seconds) in
  let heap = heap_mb () in
  let e2e = end_to_end u ~heap in
  Printf.printf "units=%d failed=%d setups=%d\n" u.u_units u.u_failed
    (List.length u.u_setup);
  List.iter print_metric (e2e @ workload_figures w u);
  List.iter (fun (k, v) ->
      if not (String.contains v '\n' || String.contains v ',') then Printf.printf "%s = %s\n" k v)
    u.u_det;
  let bad = report_mismatches () in
  print_endline
    (Json.to_string (result_json ~attempted:u.u_units ~failed:u.u_failed e2e));
  if bad then exit 1

(* The untraced and traced legs at the workload's fixed trace size;
   their deterministic fields must agree. *)
let both (w : Work.t) ~seed =
  let u = untraced w ~seed ~setups:1 ~budget:(Fixed w.trace_rounds) in
  let g0 = Gc.quick_stat () in
  let t = traced w ~seed in
  let g1 = Gc.quick_stat () in
  List.iter
    (fun (k, v) ->
      let tv = Option.value ~default:"<absent>" (List.assoc_opt k t.t_det) in
      if tv <> v then mismatch ("traced " ^ k) ~measured:tv ~expected:v)
    u.u_det;
  let gc =
    { minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_words -. g0.Gc.major_words;
      collections = g1.Gc.major_collections - g0.Gc.major_collections }
  in
  (u, t, gc)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let find name layer = List.find (fun x -> x.name = name) layer

(* Where the single-network reconfigurations spend their stepped wall:
   the replay estimates stand in for the heavy steps they explain. *)
let attribution layer =
  let v name = (find name layer).value in
  let parts =
    [ ("core", v "core.epoch_ms"); ("switch", v "switch.epoch_load_ms");
      ("network", v "network.converged_ms"); ("sim light steps", v "sim.light_ms") ]
  in
  let total = List.fold_left (fun a (_, x) -> a +. x) 0. parts in
  let wall = v "sim.stepped_ms" in
  let largest, _ =
    List.fold_left (fun (bn, bx) (n, x) -> if x > bx then (n, x) else (bn, bx))
      ("none", neg_infinity) parts
  in
  (parts, total, wall, ratio total wall, largest)

let trace (w : Work.t) ~seed ~out =
  Printf.printf "e2e trace: workload=%s seed=%d %s\n%!" w.name seed (shape ());
  let u, t, gc = both w ~seed in
  let layer = per_layer u t gc in
  List.iter print_metric layer;
  let parts, total, wall, share, largest = attribution layer in
  Printf.printf
    "attribution per unit: %s = %.1f ms of %.1f ms stepped wall (%.2fx); \
     largest layer: %s\n"
    (String.concat " + "
       (List.map (fun (n, x) -> Printf.sprintf "%s %.1f" n x) parts))
    total wall share largest;
  let spans = t.t_spans @ t.t_rec.Layers.spans in
  mkdir_p out;
  let base = Filename.concat out (Printf.sprintf "%s-seed%d" w.name seed) in
  write_file (base ^ ".trace.json") (Json.to_string (Layers.chrome_trace spans));
  write_file (base ^ ".layers.json")
    (Json.to_string
       (Json.Obj
          [ ("workload", Json.String w.name); ("seed", Json.Int seed);
            ("cores", Json.Int cores); ("domains", Json.Int !domains);
            ("ocaml", Json.String Sys.ocaml_version);
            ("units", Json.Int t.t_units);
            ("spans", Json.Int (List.length spans));
            ("spans_dropped", Json.Int t.t_rec.Layers.dropped);
            ("largest_layer", Json.String largest);
            ("attribution_share", Json.Float share);
            ("metrics",
             Json.Obj
               (List.map
                  (fun x ->
                    ( x.name,
                      Json.Obj
                        [ ("value", Json.Float x.value);
                          ("unit", Json.String x.unit_);
                          ("deterministic", Json.Bool x.det) ] ))
                  layer)) ]));
  Printf.printf "wrote %s.trace.json and %s.layers.json\n" base base;
  let bad = report_mismatches () in
  print_endline
    (Json.to_string (result_json ~attempted:u.u_units ~failed:u.u_failed layer));
  if bad then exit 1

(* Deterministic fields only, so the output is byte-comparable across
   domain counts. *)
let smoke_one () =
  List.iter
    (fun (w : Work.t) ->
      let u, t, gc = both w ~seed:1 in
      Printf.printf "== %s\n" w.name;
      List.iter (fun (k, v) -> Printf.printf "%s = %s\n" k v) u.u_det;
      List.iter
        (fun x -> if x.det then Printf.printf "%s = %.17g\n" x.name x.value)
        (per_layer u t gc))
    Work.smoke;
  if report_mismatches () then exit 1

(* Re-run this executable once per domain count, all counts at once, and
   byte-compare.  Each child prints a few kilobytes, well within a pipe's
   buffer, so reading the children in turn cannot stall one of them. *)
let smoke_compare counts =
  let spawn d =
    let env =
      Array.append
        [| Printf.sprintf "AUTONET_DOMAINS=%d" d |]
        (Array.of_list
           (List.filter
              (fun kv -> not (String.starts_with ~prefix:"AUTONET_DOMAINS=" kv))
              (Array.to_list (Unix.environment ()))))
    in
    Unix.open_process_args_full Sys.executable_name
      [| Sys.executable_name; "smoke"; "--domains"; string_of_int d |]
      env
  in
  let finish d ((stdout, _, _) as child) =
    let s = In_channel.input_all stdout in
    (d, s, Unix.close_process_full child)
  in
  let outputs = List.map2 finish counts (List.map spawn counts) in
  List.iter
    (fun (d, s, status) ->
      if status <> Unix.WEXITED 0 then begin
        print_string s;
        Printf.printf "smoke: FAIL at %d domains (cores=%d)\n" d cores;
        exit 1
      end)
    outputs;
  match outputs with
  | [] -> usage ()
  | (first, s, _) :: rest ->
    let reference = String.split_on_char '\n' s in
    List.iter
      (fun (d, s, _) ->
        let lines = String.split_on_char '\n' s in
        if lines <> reference then begin
          let rec first_diff = function
            | a :: ra, b :: rb -> if a = b then first_diff (ra, rb) else (a, b)
            | a :: _, [] -> (a, "<end of output>")
            | [], b :: _ -> ("<end of output>", b)
            | [], [] -> ("", "")
          in
          let expected, measured = first_diff (reference, lines) in
          Printf.printf
            "smoke: FAIL at %d domains: measured %S, expected %S (as at %d \
             domains; cores=%d)\n"
            d measured expected first cores;
          exit 1
        end)
      rest;
    Printf.printf "smoke: %d deterministic lines identical at domains %s\n"
      (List.length reference)
      (String.concat "," (List.map string_of_int counts))

(* --- Command line ------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, flags = match args with m :: f -> (m, f) | [] -> usage () in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let flags = parse [] flags in
  let known = [ "workload"; "seed"; "seconds"; "trace"; "out"; "domains" ] in
  List.iter (fun (k, _) -> if not (List.mem k known) then usage ()) flags;
  let get k default = Option.value ~default (List.assoc_opt k flags) in
  let int k default =
    match int_of_string_opt (get k default) with Some n -> n | None -> usage ()
  in
  let workload () =
    match List.find_opt (fun (w : Work.t) -> w.name = get "workload" "") Work.all with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int "seed" "1" in
  let seconds =
    match float_of_string_opt (get "seconds" "10") with
    | Some s when s > 0. -> s
    | _ -> usage ()
  in
  let out = get "out" (Filename.concat "_build" "e2e-trace") in
  let mode =
    match (mode, get "trace" "0") with
    | "run", "1" -> "trace"
    | m, ("0" | "1") -> m
    | _ -> usage ()
  in
  match mode with
  | "run" ->
    pin_domains (min 2 cores);
    run (workload ()) ~seed ~seconds
  | "trace" ->
    pin_domains (min 2 cores);
    trace (workload ()) ~seed ~out
  | "smoke" -> (
    let counts =
      List.map
        (fun s -> match int_of_string_opt s with Some d when d >= 1 -> d | _ -> usage ())
        (String.split_on_char ',' (get "domains" "1,2"))
    in
    match counts with
    | [ d ] ->
      pin_domains d;
      smoke_one ()
    | _ -> smoke_compare counts)
  | _ -> usage ()

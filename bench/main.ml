(* The experiment harness: regenerates every table and figure reproduction
   listed in DESIGN.md / EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e1 e6   # selected experiments
     dune exec bench/main.exe -- list    # what is available

   Micro-benchmark options:
     dune exec bench/main.exe -- micro --json BENCH_micro.json
         also write ns/op per kernel (fast path vs reference) as JSON
     dune exec bench/main.exe -- micro --smoke
         tiny iteration budget; used by the bench-smoke alias to keep
         the harness from bit-rotting without burning CI time *)

let experiments : (string * string * (unit -> unit)) list =
  [ ("e1", "reconfiguration time, SRC LAN, three regimes", Exp_reconfig.e1);
    ("e2", "reconfiguration time vs size and diameter", Exp_reconfig.e2);
    ("e3", "aggregate bandwidth vs pairs (vs FDDI/Ethernet)", Exp_dataplane.e3);
    ("e4", "switch transit latency and forwarding rate", Exp_dataplane.e4);
    ("e5", "FIFO sizing formula", Exp_dataplane.e5);
    ("e6", "figure 9 broadcast deadlock and fix", Exp_dataplane.e6);
    ("e7", "up*/down* deadlock freedom and path inflation", Exp_routing.e7);
    ("e8", "skeptic hysteresis vs flapping link", Exp_reconfig.e8);
    ("e9", "short-address learning", Exp_hosts.e9);
    ("e10", "host fail-over", Exp_hosts.e10);
    ("e11", "latency scaling vs ring", Exp_hosts.e11);
    ("e12", "Autonet-to-Ethernet bridge envelope", Exp_hosts.e12);
    ("e13", "short-address table audit", Exp_routing.e13);
    ("e14", "broadcast storm and containment", Exp_dataplane.e14);
    ("e15", "Autopilot release rollout storm", Exp_reconfig.e15);
    ("e16", "chaos campaign throughput, serial vs domain pool", Exp_chaos.e16);
    ("e17", "telemetry instrumentation overhead", Exp_telemetry.e17);
    ("a1", "ablation: minimal vs all legal routes", Exp_routing.a1);
    ("a2", "ablation: FCFC vs strict FCFS scheduler", Exp_dataplane.a2);
    ("a3", "ablation: short addresses vs source routing vs UIDs", Exp_routing.a3);
    ("a4", "ablation: alternate host ports", Exp_routing.a4);
    ("micro", "bechamel micro-benchmarks of the kernels", Micro.run);
    ("scaling", "domain-pool speedup gate (the bench-scaling alias)",
     Exp_scaling.run);
    ("delta", "e18: incremental reconfiguration speedup gate (bench-delta)",
     Exp_delta.run);
    ("fuzz", "e19: coverage-guided fuzz gate + churn campaign (bench-fuzz)",
     Exp_fuzz.run);
    ("profile", "e25: one reconfiguration's work counters and call stacks",
     Exp_profile.run) ]

let list () =
  print_endline "available experiments:";
  List.iter
    (fun (id, what, _) -> Printf.printf "  %-6s %s\n" id what)
    experiments

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  (* Peel off micro-benchmark options before dispatching experiment ids. *)
  let rec parse_opts = function
    | "--json" :: path :: rest ->
      Micro.json_path := Some path;
      parse_opts rest
    | [ "--json" ] ->
      prerr_endline "--json requires a file argument";
      exit 2
    | "--smoke" :: rest ->
      Micro.smoke := true;
      Exp_scaling.smoke := true;
      Exp_delta.smoke := true;
      Exp_fuzz.smoke := true;
      parse_opts rest
    | arg :: rest -> arg :: parse_opts rest
    | [] -> []
  in
  let args = parse_opts args in
  match args with
  | [ "list" ] -> list ()
  | [] ->
    print_endline
      "Autonet reproduction: experiment harness (see DESIGN.md / EXPERIMENTS.md)";
    List.iter (fun (_, _, f) -> f ()) experiments
  | ids ->
    List.iter
      (fun id ->
        match
          List.find_opt (fun (i, _, _) -> String.lowercase_ascii id = i) experiments
        with
        | Some (_, _, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S\n" id;
          list ();
          exit 2)
      ids

open Autonet_topo
module N = Autonet.Network
module Params = Autonet_autopilot.Params
module Pool = Autonet_parallel.Pool
module Rng = Autonet_sim.Rng
module Time = Autonet_sim.Time
module B = Builders
module Metrics = Autonet_telemetry.Metrics
module Timeline = Autonet_telemetry.Timeline

(* --- Coverage signatures ---------------------------------------------- *)

(* Octave buckets (0, 1, [2,4), [4,8), [8,16), ...): coarse enough that
   blind sampling's per-seed jitter collapses into a few cells per
   feature, while a mutation that doubles a counter still lands in a
   fresh cell. *)
let bucket v =
  if v <= 1 then v
  else begin
    let rec go b lo = if v < 2 * lo then b else go (b + 1) (2 * lo) in
    go 2 2
  end

(* The telemetry instruments folded into signatures, in signature order:
   the autopilot counters plus the engine event and fabric packet totals.
   Instruments a run never touched read 0, so signatures stay comparable
   as instrumentation grows. *)
let signature_counters =
  [ "autopilot.reconfigurations";
    "autopilot.configurations";
    "autopilot.skeptic_backoffs";
    "autopilot.packets_lost_to_reset";
    "autopilot.packets_received";
    "autopilot.port_transitions";
    "autopilot.delta_hits";
    "autopilot.delta_fallbacks";
    "autopilot.delta_switches_rebuilt";
    "engine.events_executed";
    "fabric.packets_sent" ]

let signature ~violations snapshot timeline =
  let labels =
    List.sort_uniq compare (List.map Oracle.label violations)
  in
  let counters =
    List.map
      (fun n -> string_of_int (bucket (Metrics.scalar_value snapshot n)))
      signature_counters
  in
  let shape =
    List.map
      (fun (_, v) -> string_of_int (bucket v))
      (Timeline.shape timeline)
  in
  "v="
  ^ (if labels = [] then "ok" else String.concat "," labels)
  ^ "|c=" ^ String.concat "," counters
  ^ "|t=" ^ String.concat "," shape

(* A signature names one coverage cell per feature: each violation label,
   and each (feature index, bucket) pair.  Novelty is judged per cell
   (the AFL habit), not per whole vector — with 16 jittery dimensions the
   cross-product would make every schedule "novel". *)
let cells_of_signature s =
  List.concat_map
    (fun part ->
      match String.index_opt part '=' with
      | None -> [ part ]
      | Some i ->
        let tag = String.sub part 0 i in
        let vals = String.sub part (i + 1) (String.length part - i - 1) in
        List.mapi
          (fun j v ->
            if tag = "v" then "v:" ^ v else Printf.sprintf "%s%d:%s" tag j v)
          (String.split_on_char ',' vals))
    (String.split_on_char '|' s)

(* --- Corpus entries --------------------------------------------------- *)

type entry = {
  e_seed : int64;
  e_schedule : Faults.schedule;
  e_signature : string;
  e_violations : string list;
}

let execute config ~seed ~schedule =
  let net, violations =
    Chaos.run_schedule ~telemetry:`On config ~seed ~schedule
  in
  let timeline =
    match N.timeline net with Some tl -> tl | None -> Timeline.create ()
  in
  { e_seed = seed;
    e_schedule = schedule;
    e_signature = signature ~violations (N.telemetry_snapshot net) timeline;
    e_violations = List.sort_uniq compare (List.map Oracle.label violations) }

(* --- Configuration ---------------------------------------------------- *)

type config = {
  chaos : Chaos.config;
  budget : int;
  batch : int;
  guided : bool;
  max_span : int;
}

let default chaos =
  { chaos; budget = 200; batch = 8; guided = true; max_span = 128 }

(* Percentage of candidates drawn blind even when guided, so the mutator
   cannot starve exploration (AFL's "havoc vs. import"). *)
let blind_pct = 10

(* Operators stacked per focused phase of a mutated candidate. *)
let max_mutations = 4

(* --- The fuzz loop ---------------------------------------------------- *)

type result = {
  r_corpus : entry list;  (** discovery order *)
  r_failures : entry list;
  r_executed : int;
  r_distinct : int;
  r_cells : int;
  r_signatures : int;
}

(* Mutating past this length stops paying: schedules grow without bound
   (each duplicate is one more item) and so does per-schedule sim time. *)
let max_items cfg = Stdlib.max 16 (16 * cfg.chaos.Chaos.actions)

let graph_for cfg seed =
  (B.of_spec cfg.chaos.Chaos.topo ~seed ~hosts:cfg.chaos.Chaos.hosts).B.graph

let blind_candidate cfg rng =
  let seed = Rng.next64 rng in
  (seed, Chaos.schedule_for cfg.chaos ~seed)

(* One mutated candidate: pick a corpus entry (recency-biased, the AFL
   habit), stack 1..[max_mutations] operators on its schedule.  The entry's
   network seed is kept, so the topology the ids refer to is the one the
   candidate replays on; splice partners are fresh random schedules drawn
   on that same topology for the same reason. *)
let mutated_candidate cfg rng corpus ncorpus =
  let e =
    let i =
      if ncorpus > 16 && Rng.bool rng then ncorpus - 1 - Rng.int rng 16
      else Rng.int rng ncorpus
    in
    corpus.(i)
  in
  let graph = graph_for cfg e.e_seed in
  let horizon = cfg.chaos.Chaos.horizon in
  let fresh () =
    Faults.random ~rng:(Rng.create ~seed:(Rng.next64 rng)) ~graph ~horizon
      ~events:cfg.chaos.Chaos.actions
  in
  let last s =
    List.fold_left
      (fun acc (it : Faults.item) -> Time.max acc it.at)
      Time.zero s
  in
  (* The growing operators ([merge], [splice], [duplicate_one]) retire at
     the length cap and [stretch] at the span cap — past those an
     application is the identity.  [merge] walks the fault *density*
     across octave cells the generator's fixed event budget never
     reaches; [stretch]/[squeeze] walk the fault *spacing*, which decides
     whether faults get their own reconfigurations or pile into the same
     detection windows. *)
  let apply s = function
    | `Shift -> Faults.shift_one ~rng ~horizon s
    | `Retarget -> Faults.retarget_one ~rng ~graph s
    | `Drop -> Faults.drop_one ~rng s
    | `Thin -> Faults.thin ~rng s
    | `Squeeze -> Faults.squeeze s
    | `Stretch ->
      if last s >= cfg.max_span * horizon then s else Faults.stretch s
    | `Splice ->
      if List.length s >= max_items cfg then s
      else Faults.splice ~rng s (fresh ())
    | `Merge ->
      if List.length s >= max_items cfg then s
      else Faults.merge s (fresh ())
    | `Duplicate ->
      if List.length s >= max_items cfg then s
      else Faults.duplicate_one ~rng ~horizon s
  in
  let operators =
    [| `Shift; `Retarget; `Drop; `Thin; `Squeeze; `Stretch; `Splice; `Merge;
       `Duplicate |]
  in
  (* One operator, applied 1..max_mutations times: focused stacking is
     what compounds — four stretches are a 16x span, four merges four
     times the density — where a fresh random operator each step mostly
     cancels itself out.  Half the candidates run a second focused phase,
     which is how cross-axis shapes (dense *and* wide: merge^k then
     stretch^k) arise within one candidate instead of waiting a corpus
     generation per axis. *)
  let phase s =
    let op = operators.(Rng.int rng (Array.length operators)) in
    let k = 1 + Rng.int rng max_mutations in
    let rec go s k = if k = 0 then s else go (apply s op) (k - 1) in
    go s k
  in
  let schedule =
    let s = phase e.e_schedule in
    if Rng.bool rng then phase s else s
  in
  (* The operators preserve validity by construction; this is the safety
     net that keeps a fuzzer bug from crashing the simulator instead of
     surfacing as a failed candidate. *)
  match Faults.validate ~graph schedule with
  | Ok () -> (e.e_seed, schedule)
  | Error _ -> (e.e_seed, e.e_schedule)

let run ?pool cfg ~seed =
  if cfg.budget < 1 then invalid_arg "Fuzz.run: budget must be >= 1";
  if cfg.batch < 1 then invalid_arg "Fuzz.run: batch must be >= 1";
  let pool = match pool with Some p -> p | None -> Pool.default () in
  let rng = Rng.create ~seed in
  let seen = Hashtbl.create 64 in
  let sigs = Hashtbl.create 64 in
  let corpus = ref [] and ncorpus = ref 0 in
  let corpus_arr = ref [||] in
  let failures = ref [] in
  let executed = ref 0 in
  while !executed < cfg.budget do
    let n = Stdlib.min cfg.batch (cfg.budget - !executed) in
    (* Candidate generation is sequential in the campaign rng (so the run
       replays from one seed); execution fans out across the pool, and
       the fold below consumes results in candidate order, so the corpus
       is byte-identical at any domain count. *)
    let candidates =
      Array.init n (fun _ ->
          if (not cfg.guided) || !ncorpus = 0
             || Rng.int rng 100 < blind_pct
          then blind_candidate cfg rng
          else mutated_candidate cfg rng !corpus_arr !ncorpus)
    in
    let entries =
      Pool.parallel_map_array pool
        (fun (seed, schedule) -> execute cfg.chaos ~seed ~schedule)
        candidates
    in
    Array.iter
      (fun e ->
        incr executed;
        if e.e_violations <> [] then failures := e :: !failures;
        Hashtbl.replace sigs e.e_signature ();
        let cells = cells_of_signature e.e_signature in
        if List.exists (fun c -> not (Hashtbl.mem seen c)) cells then begin
          List.iter (fun c -> Hashtbl.replace seen c ()) cells;
          corpus := e :: !corpus;
          incr ncorpus
        end)
      entries;
    (* Rebuild the pick array once per round, not per candidate. *)
    corpus_arr := Array.of_list (List.rev !corpus)
  done;
  { r_corpus = List.rev !corpus;
    r_failures = List.rev !failures;
    r_executed = !executed;
    r_distinct = !ncorpus;
    r_cells = Hashtbl.length seen;
    r_signatures = Hashtbl.length sigs }

(* --- Corpus serialization --------------------------------------------- *)

let corpus_header = "# autonet fuzz corpus v1"

let entry_to_string e =
  Printf.sprintf "entry seed=0x%016Lx viol=%s sig=%s\n%send\n" e.e_seed
    (match e.e_violations with [] -> "-" | vs -> String.concat "," vs)
    e.e_signature
    (Faults.schedule_to_string e.e_schedule)

let corpus_to_string entries =
  corpus_header ^ "\n" ^ String.concat "" (List.map entry_to_string entries)

let corpus_of_string str =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' str in
  let parse_header line =
    (* "entry seed=0x... viol=... sig=..." *)
    match String.split_on_char ' ' line with
    | [ "entry"; seed; viol; sg ]
      when String.length seed > 5
           && String.sub seed 0 5 = "seed="
           && String.length viol > 5
           && String.sub viol 0 5 = "viol="
           && String.length sg > 4
           && String.sub sg 0 4 = "sig=" -> (
      let seed = String.sub seed 5 (String.length seed - 5) in
      match Int64.of_string_opt seed with
      | None -> Error (line ^ ": malformed seed")
      | Some seed ->
        let viol = String.sub viol 5 (String.length viol - 5) in
        let violations =
          if viol = "-" then [] else String.split_on_char ',' viol
        in
        Ok (seed, violations, String.sub sg 4 (String.length sg - 4)))
    | _ -> Error (line ^ ": malformed entry header")
  in
  let rec entries acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> entries acc rest
    | line :: rest when String.length line > 0 && line.[0] = '#' ->
      entries acc rest
    | line :: rest ->
      let* seed, violations, sg = parse_header line in
      let rec body acc_lines = function
        | [] -> Error (line ^ ": entry not terminated by \"end\"")
        | "end" :: rest -> Ok (List.rev acc_lines, rest)
        | l :: rest -> body (l :: acc_lines) rest
      in
      let* body_lines, rest = body [] rest in
      let* schedule =
        Faults.schedule_of_string (String.concat "\n" body_lines)
      in
      entries
        ({ e_seed = seed;
           e_schedule = schedule;
           e_signature = sg;
           e_violations = violations }
        :: acc)
        rest
  in
  entries [] lines

let merge_corpora corpora =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (List.filter (fun e ->
         let cells = cells_of_signature e.e_signature in
         if List.exists (fun c -> not (Hashtbl.mem seen c)) cells then begin
           List.iter (fun c -> Hashtbl.replace seen c ()) cells;
           true
         end
         else false))
    corpora

(* --- Regression seed files -------------------------------------------- *)

type seed_file = {
  sf_topo : string;
  sf_params : string;
  sf_hosts : int;
  sf_seed : int64;
  sf_schedule : Faults.schedule;
}

let seed_file_to_string sf =
  Printf.sprintf "topo %s\nparams %s\nhosts %d\nseed 0x%016Lx\nschedule\n%send\n"
    sf.sf_topo sf.sf_params sf.sf_hosts sf.sf_seed
    (Faults.schedule_to_string sf.sf_schedule)

let seed_file_of_string str =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' str in
  let rec fields topo params hosts seed = function
    | [] -> Error "seed file: no schedule section"
    | line :: rest -> (
      match String.trim line with
      | "" -> fields topo params hosts seed rest
      | l when l.[0] = '#' -> fields topo params hosts seed rest
      | "schedule" -> (
        let rec body acc = function
          | [] -> Error "seed file: schedule not terminated by \"end\""
          | l :: rest when String.trim l = "end" -> Ok (List.rev acc, rest)
          | l :: rest -> body (l :: acc) rest
        in
        let* body_lines, _ = body [] rest in
        let* schedule =
          Faults.schedule_of_string (String.concat "\n" body_lines)
        in
        match (topo, seed) with
        | None, _ -> Error "seed file: missing topo"
        | _, None -> Error "seed file: missing seed"
        | Some topo, Some seed ->
          Ok
            { sf_topo = topo;
              sf_params = Option.value params ~default:"fast";
              sf_hosts = Option.value hosts ~default:0;
              sf_seed = seed;
              sf_schedule = schedule })
      | l -> (
        match String.index_opt l ' ' with
        | None -> Error (l ^ ": expected KEY VALUE")
        | Some i -> (
          let key = String.sub l 0 i in
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          match key with
          | "topo" -> fields (Some v) params hosts seed rest
          | "params" -> fields topo (Some v) hosts seed rest
          | "hosts" -> (
            match int_of_string_opt v with
            | Some h -> fields topo params (Some h) seed rest
            | None -> Error (l ^ ": malformed hosts"))
          | "seed" -> (
            match Int64.of_string_opt v with
            | Some s -> fields topo params hosts (Some s) rest
            | None -> Error (l ^ ": malformed seed"))
          | _ -> Error (l ^ ": unknown key"))))
  in
  fields None None None None lines

let seed_config sf =
  match Params.preset sf.sf_params with
  | None -> invalid_arg (sf.sf_params ^ ": unknown params preset")
  | Some params ->
    { Chaos.default_config with
      Chaos.topo = sf.sf_topo;
      params;
      hosts = sf.sf_hosts }

let replay_seed ?hook sf =
  let config = seed_config sf in
  let _net, violations =
    Chaos.run_schedule ?hook config ~seed:sf.sf_seed ~schedule:sf.sf_schedule
  in
  violations

(* --- Long-horizon churn campaigns ------------------------------------- *)

type churn_report = {
  ch_cycles : int;
  ch_heals : int;
  ch_epochs : int;
  ch_not_converged : int;
  ch_max_heal : Time.t;
  ch_mean_heal : Time.t;
  ch_early_max_heal : Time.t;
  ch_late_max_heal : Time.t;
  ch_oracle_checks : int;
  ch_oracle_violations : (int * string list) list;
  ch_metrics : Metrics.snapshot;
}

let heal_bounds =
  (* Histogram bucket bounds in microseconds of simulated heal time. *)
  [| 100; 300; 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000;
     3_000_000 |]

let churn ?(check_every = 100) config ~seed ~cycles =
  if cycles < 1 then invalid_arg "Fuzz.churn: cycles must be >= 1";
  let topo = B.of_spec config.Chaos.topo ~seed ~hosts:config.Chaos.hosts in
  let net =
    N.create ~params:config.Chaos.params ~seed ~telemetry:`On topo
  in
  N.start net;
  (match N.run_until_converged ~timeout:config.Chaos.timeout net with
  | Some _ -> ()
  | None -> invalid_arg "Fuzz.churn: the unfaulted network did not converge");
  let g = N.graph net in
  let links =
    List.filter_map
      (fun (l : Autonet_core.Graph.link) ->
        if Autonet_core.Graph.is_loop l then None else Some l.id)
      (Autonet_core.Graph.links g)
  in
  let switches = Autonet_core.Graph.switches g in
  let rng = Rng.create ~seed in
  let reg = Metrics.create ~enabled:true () in
  let c_cycles = Metrics.counter reg "churn.cycles" in
  let c_heals = Metrics.counter reg "churn.heals" in
  let c_timeouts = Metrics.counter reg "churn.not_converged" in
  let c_viol = Metrics.counter reg "churn.oracle_violations" in
  let h_heal = Metrics.histogram reg "churn.heal_us" ~bounds:heal_bounds in
  let g_max = Metrics.gauge reg "churn.max_heal_us" in
  let heals = ref 0 and timeouts = ref 0 in
  let total_heal = ref Time.zero and max_heal = ref Time.zero in
  let early_max = ref Time.zero and late_max = ref Time.zero in
  let oracle_checks = ref 0 and oracle_violations = ref [] in
  let converge_after cycle fault =
    let t0 = N.now net in
    N.apply_fault net fault;
    match N.run_until_converged ~timeout:config.Chaos.timeout net with
    | None ->
      incr timeouts;
      Metrics.incr c_timeouts
    | Some t1 ->
      let heal = Time.sub t1 t0 in
      incr heals;
      Metrics.incr c_heals;
      Metrics.observe h_heal (heal / 1000);
      Metrics.max_gauge g_max (heal / 1000);
      total_heal := Time.add !total_heal heal;
      max_heal := Time.max !max_heal heal;
      if 2 * cycle < cycles then early_max := Time.max !early_max heal
      else late_max := Time.max !late_max heal
  in
  for cycle = 0 to cycles - 1 do
    Metrics.incr c_cycles;
    (* Continuous churn: a component leaves, the network heals around it,
       the component rejoins, the network heals again — the "pick up the
       pieces" loop, repeated for thousands of epochs. *)
    (if List.length switches > 1 && Rng.int rng 100 < 40 then begin
       let s = Rng.pick rng switches in
       converge_after cycle (Faults.Switch_down s);
       converge_after cycle (Faults.Switch_up s)
     end
     else
       match links with
       | [] -> ()
       | _ ->
         let l = Rng.pick rng links in
         converge_after cycle (Faults.Link_down l);
         converge_after cycle (Faults.Link_up l));
    if check_every > 0 && (cycle + 1) mod check_every = 0 then begin
      incr oracle_checks;
      match Oracle.check net with
      | [] -> ()
      | vs ->
        Metrics.add c_viol (List.length vs);
        oracle_violations :=
          (cycle, List.sort_uniq compare (List.map Oracle.label vs))
          :: !oracle_violations
    end
  done;
  let epochs =
    Metrics.counter_value (N.telemetry_snapshot net)
      "autopilot.reconfigurations"
  in
  Metrics.set_gauge (Metrics.gauge reg "churn.epochs") epochs;
  { ch_cycles = cycles;
    ch_heals = !heals;
    ch_epochs = epochs;
    ch_not_converged = !timeouts;
    ch_max_heal = !max_heal;
    ch_mean_heal =
      (if !heals = 0 then Time.zero else !total_heal / !heals);
    ch_early_max_heal = !early_max;
    ch_late_max_heal = !late_max;
    ch_oracle_checks = !oracle_checks;
    ch_oracle_violations = List.rev !oracle_violations;
    ch_metrics = Metrics.snapshot reg }

let pp_churn_report ppf r =
  Format.fprintf ppf
    "@[<v>churn: %d cycles, %d heals, %d epochs, %d timeouts@,\
     heal time: max %a mean %a (early max %a, late max %a)@,\
     oracle: %d checks, %d flagged@,"
    r.ch_cycles r.ch_heals r.ch_epochs r.ch_not_converged Time.pp r.ch_max_heal
    Time.pp r.ch_mean_heal Time.pp r.ch_early_max_heal Time.pp
    r.ch_late_max_heal r.ch_oracle_checks
    (List.length r.ch_oracle_violations);
  List.iter
    (fun (cycle, labels) ->
      Format.fprintf ppf "  cycle %d: [%s]@," cycle (String.concat "," labels))
    r.ch_oracle_violations;
  let metric_lines =
    String.split_on_char '\n' (String.trim (Metrics.render r.ch_metrics))
  in
  Format.fprintf ppf "degradation metrics:@,  @[<v>%a@]@]"
    (Format.pp_print_list Format.pp_print_string)
    metric_lines

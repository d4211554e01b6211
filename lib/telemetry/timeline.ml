module Time = Autonet_sim.Time

type heard = { parent : int; via_port : int; hop : int; origin : int }

type kind =
  | Detection
  | Fault of string
  | Epoch_start of heard
  | Position
  | Skeptic_wait of Time.t
  | Tree_stable
  | Reports_closed
  | Load_begin
  | Configured

let kind_to_string = function
  | Detection | Fault _ -> "detection"
  | Epoch_start _ -> "epoch_start"
  | Position -> "position"
  | Skeptic_wait _ -> "skeptic_wait"
  | Tree_stable -> "tree_stable"
  | Reports_closed -> "reports_closed"
  | Load_begin -> "load_begin"
  | Configured -> "configured"

let is_detection = function Detection | Fault _ -> true | _ -> false

type mark = {
  m_time : Time.t;
  m_epoch : int64;
  m_tid : int;
  m_kind : kind;
}

type span = {
  sp_time : Time.t;
  sp_epoch : int64;
  sp_tid : int;
  sp_name : string;
  sp_dur_ns : int;
  sp_wall : bool;
}

type t = {
  mutable rev_marks : mark list;
  mutable rev_spans : span list;
  mutable n_faults : int;
}

let create () = { rev_marks = []; rev_spans = []; n_faults = 0 }

let mark t ~time ~epoch ~tid kind =
  (match kind with Fault _ -> t.n_faults <- t.n_faults + 1 | _ -> ());
  t.rev_marks <-
    { m_time = time; m_epoch = epoch; m_tid = tid; m_kind = kind }
    :: t.rev_marks

let marks t = List.rev t.rev_marks
let faults t = t.n_faults

(* The marks the phase derivation and the Chrome export read: [Position]
   and [Skeptic_wait] are for the causal view only. *)
let phase_marks t =
  List.filter
    (fun m -> match m.m_kind with Position | Skeptic_wait _ -> false | _ -> true)
    (marks t)

let span t ?(wall = true) ~time ~epoch ~tid ~name ~dur_ns () =
  t.rev_spans <-
    { sp_time = time; sp_epoch = epoch; sp_tid = tid; sp_name = name;
      sp_dur_ns = dur_ns; sp_wall = wall }
    :: t.rev_spans

let spans t = List.rev t.rev_spans

(* --- Phase derivation --- *)

let phase_names =
  [ "detection"; "spanning_tree"; "termination"; "accumulation";
    "assignment"; "flood"; "table_load" ]

type phase = { ph_name : string; ph_start : Time.t; ph_stop : Time.t }

type epoch_spans = {
  es_epoch : int64;
  es_start : Time.t;
  es_stop : Time.t;
  es_complete : bool;
  es_phases : phase list;
}

let epochs t =
  let ms = phase_marks t in
  let detections = List.filter (fun m -> is_detection m.m_kind) ms in
  let numbered =
    List.filter (fun m -> not (is_detection m.m_kind) && m.m_epoch >= 0L) ms
  in
  let epoch_ids =
    List.sort_uniq Int64.compare (List.map (fun m -> m.m_epoch) numbered)
  in
  (* prev_stop carries the previous epoch's end so a Detection mark is only
     attributed to the epoch it actually precedes. *)
  let rec build prev_stop = function
    | [] -> []
    | e :: rest ->
      let of_e = List.filter (fun m -> m.m_epoch = e) numbered in
      let times p =
        List.filter_map
          (fun m -> if p m.m_kind then Some m.m_time else None)
          of_e
      in
      let fold_min = function [] -> None | l -> Some (List.fold_left Time.min max_int l) in
      let fold_max = function [] -> None | l -> Some (List.fold_left Time.max min_int l) in
      let t0 =
        fold_min (times (function Epoch_start _ -> true | _ -> false))
      in
      (match t0 with
      | None -> build prev_stop rest (* marks without a start: skip *)
      | Some t0 ->
        let root_tid =
          List.find_map
            (fun m -> if m.m_kind = Reports_closed then Some m.m_tid else None)
            of_e
        in
        let t_closed = fold_min (times (( = ) Reports_closed)) in
        let t_configured = fold_max (times (( = ) Configured)) in
        let complete = t_closed <> None && t_configured <> None in
        let det =
          (* Latest Detection at or before t0 and after the previous epoch. *)
          List.fold_left
            (fun acc m ->
              if
                Time.compare m.m_time t0 <= 0
                && Time.compare m.m_time prev_stop >= 0
              then
                match acc with
                | Some a when Time.compare a m.m_time >= 0 -> acc
                | _ -> Some m.m_time
              else acc)
            None detections
        in
        let es_start = Option.value det ~default:t0 in
        if not complete then
          let es_stop =
            Option.value (fold_max (List.map (fun m -> m.m_time) of_e))
              ~default:t0
          in
          { es_epoch = e; es_start; es_stop; es_complete = false;
            es_phases = [] }
          :: build es_stop rest
        else begin
          let t_closed = Option.get t_closed in
          let t_configured = Option.get t_configured in
          let stable_upto ~pred =
            fold_max
              (List.filter_map
                 (fun m ->
                   if
                     m.m_kind = Tree_stable && pred m.m_tid
                     && Time.compare m.m_time t_closed <= 0
                   then Some m.m_time
                   else None)
                 of_e)
          in
          let is_root tid = root_tid = Some tid in
          let tree_end = stable_upto ~pred:(fun tid -> not (is_root tid)) in
          let term_end = stable_upto ~pred:is_root in
          let flood_end =
            fold_max
              (List.filter (fun x -> Time.compare x t_configured <= 0)
                 (times (( = ) Load_begin)))
          in
          (* Contiguous boundaries, clamped monotone so phases always nest
             and sum even when a mark is missing (its phase collapses to
             zero width). *)
          let b = Array.make 8 es_start in
          b.(1) <- t0;
          b.(2) <- Option.value tree_end ~default:t0;
          b.(3) <- Option.value term_end ~default:b.(2);
          b.(4) <- t_closed;
          b.(5) <- t_closed; (* assignment is in-callback: zero sim time *)
          b.(6) <- Option.value flood_end ~default:t_closed;
          b.(7) <- t_configured;
          for i = 1 to 7 do
            b.(i) <- Time.max b.(i) b.(i - 1)
          done;
          let es_phases =
            List.mapi
              (fun i name ->
                { ph_name = name; ph_start = b.(i); ph_stop = b.(i + 1) })
              phase_names
          in
          { es_epoch = e; es_start = b.(0); es_stop = b.(7);
            es_complete = true; es_phases }
          :: build b.(7) rest
        end)
  in
  build min_int epoch_ids

let shape t =
  let es = epochs t in
  let complete, incomplete = List.partition (fun e -> e.es_complete) es in
  (* Per complete epoch, the phase that consumed the most sim time; ties
     break toward the earlier pipeline phase, so the feature is as
     deterministic as the timeline itself. *)
  let dominant e =
    match e.es_phases with
    | [] -> None
    | ph :: rest ->
      let dur p = Time.(p.ph_stop - p.ph_start) in
      Some
        (List.fold_left
           (fun best p -> if dur p > dur best then p else best)
           ph rest)
          .ph_name
  in
  let dominated name =
    List.length
      (List.filter (fun e -> dominant e = Some name) complete)
  in
  (* Total sim time spent in each phase across the whole run: the
     high-dynamic-range face of the timeline — it scales with epoch count
     times epoch duration, which is exactly what long or dense fault
     schedules move.  Seconds, not milliseconds: per-run jitter inside a
     normal campaign stays within one bucket, so only genuinely heavier
     runs open new cells. *)
  let total name =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc p ->
            if p.ph_name = name then acc + Time.(p.ph_stop - p.ph_start)
            else acc)
          acc e.es_phases)
      0 complete
    / 1_000_000_000
  in
  ("epochs_complete", List.length complete)
  :: ("epochs_incomplete", List.length incomplete)
  :: List.map (fun name -> ("dominant_" ^ name, dominated name)) phase_names
  @ List.map (fun name -> ("total_" ^ name ^ "_s", total name)) phase_names

let phase_report t =
  let module Report = Autonet_analysis.Report in
  let r =
    Report.create ~title:"Reconfiguration phase breakdown"
      ~columns:("epoch" :: phase_names @ [ "total" ])
  in
  List.iter
    (fun es ->
      if es.es_complete then
        Report.add_row r
          (Int64.to_string es.es_epoch
           :: List.map
                (fun ph -> Report.cell_time_us Time.(ph.ph_stop - ph.ph_start))
                es.es_phases
           @ [ Report.cell_time_us Time.(es.es_stop - es.es_start) ]))
    (epochs t);
  r

let span_report t =
  let module Report = Autonet_analysis.Report in
  let r =
    Report.create ~title:"Compute spans"
      ~columns:[ "epoch"; "switch"; "span"; "dur"; "clock" ]
  in
  List.iter
    (fun sp ->
      Report.add_row r
        [ Int64.to_string sp.sp_epoch;
          (if sp.sp_tid < 0 then "-" else string_of_int sp.sp_tid);
          sp.sp_name;
          Report.cell_time_us sp.sp_dur_ns;
          (if sp.sp_wall then "wall" else "injected") ])
    (spans t);
  r

(* --- Chrome trace export --- *)

let us_of_ns ns = Json.Float (float_of_int ns /. 1000.)

let to_trace_json t =
  let events = ref [] in
  let emit e = events := e :: !events in
  emit
    (Json.Obj
       [ ("ph", Json.String "M"); ("pid", Json.Int 0); ("tid", Json.Int 0);
         ("name", Json.String "thread_name");
         ("args", Json.Obj [ ("name", Json.String "reconfig phases") ]) ]);
  List.iter
    (fun es ->
      emit
        (Json.Obj
           [ ("ph", Json.String "X");
             ("name", Json.String (Printf.sprintf "epoch %Ld" es.es_epoch));
             ("cat", Json.String "epoch");
             ("pid", Json.Int 0); ("tid", Json.Int 0);
             ("ts", us_of_ns es.es_start);
             ("dur", us_of_ns Time.(es.es_stop - es.es_start));
             ("args",
              Json.Obj
                [ ("epoch", Json.Int (Int64.to_int es.es_epoch));
                  ("ns_start", Json.Int es.es_start);
                  ("ns_dur", Json.Int Time.(es.es_stop - es.es_start));
                  ("complete", Json.Bool es.es_complete) ]) ]);
      List.iter
        (fun ph ->
          emit
            (Json.Obj
               [ ("ph", Json.String "X");
                 ("name", Json.String ph.ph_name);
                 ("cat", Json.String "phase");
                 ("pid", Json.Int 0); ("tid", Json.Int 0);
                 ("ts", us_of_ns ph.ph_start);
                 ("dur", us_of_ns Time.(ph.ph_stop - ph.ph_start));
                 ("args",
                  Json.Obj
                    [ ("epoch", Json.Int (Int64.to_int es.es_epoch));
                      ("ns_start", Json.Int ph.ph_start);
                      ("ns_dur", Json.Int Time.(ph.ph_stop - ph.ph_start)) ])
               ]))
        es.es_phases)
    (epochs t);
  List.iter
    (fun sp ->
      emit
        (Json.Obj
           [ ("ph", Json.String "X");
             ("name",
              Json.String
                (if sp.sp_tid < 0 then sp.sp_name
                 else Printf.sprintf "%s s%d" sp.sp_name sp.sp_tid));
             ("cat", Json.String "compute");
             ("pid", Json.Int 0); ("tid", Json.Int (sp.sp_tid + 1));
             ("ts", us_of_ns sp.sp_time);
             ("dur", us_of_ns sp.sp_dur_ns);
             ("args",
              Json.Obj
                [ ("epoch", Json.Int (Int64.to_int sp.sp_epoch));
                  ("ns_start", Json.Int sp.sp_time);
                  ("ns_dur", Json.Int sp.sp_dur_ns);
                  ("wall_clock", Json.Bool sp.sp_wall) ]) ]))
    (spans t);
  List.iter
    (fun m ->
      emit
        (Json.Obj
           [ ("ph", Json.String "i");
             ("name",
              Json.String
                (if m.m_tid < 0 then kind_to_string m.m_kind
                 else Printf.sprintf "%s s%d" (kind_to_string m.m_kind) m.m_tid));
             ("cat", Json.String "mark");
             ("s", Json.String "t");
             ("pid", Json.Int 0); ("tid", Json.Int (m.m_tid + 1));
             ("ts", us_of_ns m.m_time);
             ("args",
              Json.Obj
                [ ("epoch", Json.Int (Int64.to_int m.m_epoch));
                  ("ns", Json.Int m.m_time) ]) ]))
    (phase_marks t);
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms") ]

(* --- Validation --- *)

let validate_trace json =
  let ( let* ) = Result.bind in
  let* events =
    match Json.member "traceEvents" json with
    | Some (Json.List l) -> Ok l
    | _ -> Error "no traceEvents array"
  in
  let str k e = Option.bind (Json.member k e) Json.to_str in
  let arg k e = Option.bind (Json.member "args" e) (Json.member k) in
  let spans cat =
    List.filter
      (fun e -> str "ph" e = Some "X" && str "cat" e = Some cat)
      events
  in
  let span_ns e =
    match
      (Option.bind (arg "ns_start" e) Json.to_int,
       Option.bind (arg "ns_dur" e) Json.to_int,
       Option.bind (arg "epoch" e) Json.to_int)
    with
    | Some s, Some d, Some ep -> Ok (s, d, ep)
    | _ -> Error "span missing ns_start/ns_dur/epoch args"
  in
  let epochs = spans "epoch" and phases = spans "phase" in
  if epochs = [] then Error "no epoch spans"
  else
    List.fold_left
      (fun acc e ->
        let* () = acc in
        let* e_start, e_dur, ep = span_ns e in
        let complete =
          match arg "complete" e with Some (Json.Bool b) -> b | _ -> false
        in
        if not complete then Ok ()
        else begin
          let mine =
            List.filter
              (fun p -> Option.bind (arg "epoch" p) Json.to_int = Some ep)
              phases
          in
          let* parts =
            List.fold_left
              (fun acc p ->
                let* l = acc in
                let* s, d, _ = span_ns p in
                let name = Option.value (str "name" p) ~default:"?" in
                Ok ((name, s, d) :: l))
              (Ok []) mine
          in
          let parts = List.rev parts in
          let* () =
            if List.map (fun (n, _, _) -> n) parts = phase_names then Ok ()
            else
              Error
                (Printf.sprintf "epoch %d: phases out of order or missing" ep)
          in
          let* stop =
            List.fold_left
              (fun acc (name, s, d) ->
                let* cursor = acc in
                if s <> cursor then
                  Error
                    (Printf.sprintf
                       "epoch %d: phase %s starts at %d ns, expected %d ns" ep
                       name s cursor)
                else if d < 0 then
                  Error (Printf.sprintf "epoch %d: phase %s negative" ep name)
                else Ok (s + d))
              (Ok e_start) parts
          in
          let* () =
            if List.for_all (fun (_, s, d) ->
                   s >= e_start && s + d <= e_start + e_dur)
                 parts
            then Ok ()
            else Error (Printf.sprintf "epoch %d: phase escapes epoch span" ep)
          in
          if stop = e_start + e_dur then Ok ()
          else
            Error
              (Printf.sprintf
                 "epoch %d: phases sum to %d ns, epoch duration %d ns" ep
                 (stop - e_start) e_dur)
        end)
      (Ok ()) epochs

module Time = Autonet_sim.Time

(* One per-switch-per-epoch record, filled in as the replay walks the
   timeline.  A reboot that re-enters the epoch replaces the whole record
   (last writer wins). *)
type entry = {
  e_sw : int;
  e_heard : Time.t;
  e_how : Timeline.heard;
  mutable e_position : Time.t;
  mutable e_configured : Time.t option;
}

type recorder_entry = { fr_time : Time.t; fr_epoch : int64; fr_msg : string }

type origin_rec = { o_time : Time.t; o_label : string }

(* What one pass over the timeline's marks yields. *)
type store = {
  entries : (int * int64, entry) Hashtbl.t;
  skeptic : (int * Time.t * int) list;  (* (sw, start, hold ns) *)
  origins : origin_rec array;  (* origin id i at index i - 1 *)
}

let replay tl =
  let entries = Hashtbl.create 64 in
  let skeptic = ref [] and origins = ref [] in
  List.iter
    (fun (m : Timeline.mark) ->
      let key = (m.m_tid, m.m_epoch) in
      let update f =
        match Hashtbl.find_opt entries key with Some e -> f e | None -> ()
      in
      match m.m_kind with
      | Timeline.Fault label ->
        origins := { o_time = m.m_time; o_label = label } :: !origins
      | Timeline.Epoch_start how ->
        Hashtbl.replace entries key
          { e_sw = m.m_tid; e_heard = m.m_time; e_how = how;
            e_position = m.m_time; e_configured = None }
      | Timeline.Position -> update (fun e -> e.e_position <- m.m_time)
      | Timeline.Configured ->
        update (fun e -> e.e_configured <- Some m.m_time)
      | Timeline.Skeptic_wait hold ->
        skeptic := (m.m_tid, m.m_time, hold) :: !skeptic
      | Timeline.Detection | Timeline.Tree_stable | Timeline.Reports_closed
      | Timeline.Load_begin ->
        ())
    (Timeline.marks tl);
  { entries; skeptic = !skeptic; origins = Array.of_list (List.rev !origins) }

let find_origin st id =
  if id >= 1 && id <= Array.length st.origins then Some st.origins.(id - 1)
  else None

(* --- Reconstruction --- *)

type node = {
  n_switch : int;
  n_parent : int;
  n_via_port : int;
  n_hop : int;
  n_origin : int;
  n_heard : Time.t;
  n_position : Time.t;
  n_configured : Time.t option;
  n_hop_ns : int option;
  n_heal_ns : int option;
  n_skeptic_ns : int;
}

type dist = { d_count : int; d_p50 : int; d_p90 : int; d_max : int }

type wave = {
  w_epoch : int64;
  w_origin : int;
  w_origin_label : string;
  w_origin_time : Time.t;
  w_start : Time.t;
  w_end : Time.t;
  w_complete : bool;
  w_nodes : node list;
  w_depth : int;
  w_fanout : int;
  w_critical : int list;
  w_hop : dist option;
  w_heal : dist option;
  w_front : (Time.t * int * int) list;
}

(* Nearest-rank percentile over a non-empty population. *)
let dist_of = function
  | [] -> None
  | vs ->
    let a = Array.of_list vs in
    Array.sort Int.compare a;
    let n = Array.length a in
    let rank p = a.(Stdlib.max 0 (((p * n) + 99) / 100 - 1)) in
    Some { d_count = n; d_p50 = rank 50; d_p90 = rank 90; d_max = a.(n - 1) }

let wave_of st ~epoch entries =
  let entries = List.sort (fun a b -> Int.compare a.e_sw b.e_sw) entries in
  let by_sw = Hashtbl.create (List.length entries) in
  List.iter (fun e -> Hashtbl.replace by_sw e.e_sw e) entries;
  let w_start =
    List.fold_left (fun acc e -> Time.min acc e.e_heard) max_int entries
  in
  let w_end =
    List.fold_left
      (fun acc e ->
        let m = Option.value ~default:e.e_heard e.e_configured in
        Time.max acc (Time.max m e.e_position))
      Time.zero entries
  in
  (* The wave's origin is the earliest initiator's; individual nodes
     keep their own (two near-simultaneous faults can seed one wave). *)
  let w_origin =
    match
      List.sort
        (fun a b -> compare (a.e_heard, a.e_sw) (b.e_heard, b.e_sw))
        entries
    with
    | first :: _ -> first.e_how.origin
    | [] -> 0
  in
  let origin_time id =
    match find_origin st id with Some o -> o.o_time | None -> w_start
  in
  let nodes =
    List.map
      (fun e ->
        let hop_ns =
          match Hashtbl.find_opt by_sw e.e_how.parent with
          | Some p when e.e_how.parent >= 0 -> Some Time.(e.e_heard - p.e_heard)
          | _ -> None
        in
        let o_time = origin_time e.e_how.origin in
        let heal_ns =
          Option.map (fun en -> Time.(en - o_time)) e.e_configured
        in
        let skeptic_ns =
          List.fold_left
            (fun acc (sw, at, hold) ->
              if sw = e.e_sw && at >= o_time && at <= e.e_heard then acc + hold
              else acc)
            0 st.skeptic
        in
        { n_switch = e.e_sw;
          n_parent = e.e_how.parent;
          n_via_port = e.e_how.via_port;
          n_hop = e.e_how.hop;
          n_origin = e.e_how.origin;
          n_heard = e.e_heard;
          n_position = e.e_position;
          n_configured = e.e_configured;
          n_hop_ns = hop_ns;
          n_heal_ns = heal_ns;
          n_skeptic_ns = skeptic_ns })
      entries
  in
  let w_depth = List.fold_left (fun acc n -> Stdlib.max acc n.n_hop) 0 nodes in
  let children = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if n.n_parent >= 0 then
        Hashtbl.replace children n.n_parent
          (1 + Option.value ~default:0 (Hashtbl.find_opt children n.n_parent)))
    nodes;
  let w_fanout = Hashtbl.fold (fun _ c acc -> Stdlib.max c acc) children 0 in
  (* Critical chain: walk parents up from the slowest node (latest
     ports-enabled, falling back to latest heard; ties to the smaller
     switch id). *)
  let slowest =
    List.fold_left
      (fun acc n ->
        let key n =
          (Option.value ~default:n.n_heard n.n_configured, -n.n_switch)
        in
        match acc with
        | None -> Some n
        | Some m -> if key n > key m then Some n else acc)
      None nodes
  in
  let w_critical =
    match slowest with
    | None -> []
    | Some n ->
      let rec up acc sw fuel =
        if fuel = 0 then acc
        else
          match Hashtbl.find_opt by_sw sw with
          | None -> acc
          | Some e ->
            if e.e_how.parent < 0 then e.e_sw :: acc
            else up (e.e_sw :: acc) e.e_how.parent (fuel - 1)
      in
      up [] n.n_switch (List.length nodes + 1)
  in
  let w_hop = dist_of (List.filter_map (fun n -> n.n_hop_ns) nodes) in
  let w_heal = dist_of (List.filter_map (fun n -> n.n_heal_ns) nodes) in
  let w_front =
    let ordered =
      List.sort
        (fun a b -> compare (a.n_heard, a.n_switch) (b.n_heard, b.n_switch))
        nodes
    in
    List.mapi (fun i n -> (n.n_heard, n.n_hop, i + 1)) ordered
  in
  { w_epoch = epoch;
    w_origin;
    w_origin_label =
      (match find_origin st w_origin with Some o -> o.o_label | None -> "boot");
    w_origin_time = origin_time w_origin;
    w_start;
    w_end;
    w_complete =
      nodes <> [] && List.for_all (fun n -> n.n_configured <> None) nodes;
    w_nodes = nodes;
    w_depth;
    w_fanout;
    w_critical;
    w_hop;
    w_heal;
    w_front }

let waves tl =
  let st = replay tl in
  let by_epoch = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (_, epoch) e ->
      Hashtbl.replace by_epoch epoch
        (e :: Option.value ~default:[] (Hashtbl.find_opt by_epoch epoch)))
    st.entries;
  Hashtbl.fold (fun epoch es acc -> (epoch, es) :: acc) by_epoch []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  |> List.map (fun (epoch, es) -> wave_of st ~epoch es)

let last_complete tl =
  List.fold_left
    (fun acc w -> if w.w_complete then Some w else acc)
    None (waves tl)

let validate_wave w =
  let by_sw = Hashtbl.create (List.length w.w_nodes) in
  List.iter (fun n -> Hashtbl.replace by_sw n.n_switch n) w.w_nodes;
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let rec check = function
    | [] -> Ok ()
    | n :: rest ->
      if n.n_parent < 0 then
        if n.n_hop <> 0 then err "root switch %d has hop %d" n.n_switch n.n_hop
        else check rest
      else begin
        match Hashtbl.find_opt by_sw n.n_parent with
        | None ->
          err "switch %d: parent %d not in the wave" n.n_switch n.n_parent
        | Some p ->
          if n.n_hop <> p.n_hop + 1 then
            err "switch %d: hop %d but parent %d has hop %d" n.n_switch n.n_hop
              p.n_switch p.n_hop
          else if Time.compare p.n_heard n.n_heard > 0 then
            err "switch %d heard before its parent %d" n.n_switch p.n_switch
          else check rest
      end
  in
  check w.w_nodes

(* --- Rendering --- *)

let pp_wave ppf w =
  let pp_dist ppf = function
    | None -> Format.pp_print_string ppf "n/a"
    | Some d ->
      Format.fprintf ppf "p50 %a p90 %a max %a (n=%d)" Time.pp d.d_p50 Time.pp
        d.d_p90 Time.pp d.d_max d.d_count
  in
  Format.fprintf ppf "@[<v>epoch %Ld: origin %s (fault #%d at %a), %d switches, %s@,"
    w.w_epoch w.w_origin_label w.w_origin Time.pp w.w_origin_time
    (List.length w.w_nodes)
    (if w.w_complete then "complete" else "incomplete");
  Format.fprintf ppf "  wave %a .. %a  depth %d  max fanout %d@," Time.pp
    w.w_start Time.pp w.w_end w.w_depth w.w_fanout;
  Format.fprintf ppf "  hop latency:  %a@," pp_dist w.w_hop;
  Format.fprintf ppf "  heal latency: %a@," pp_dist w.w_heal;
  Format.fprintf ppf "  critical chain: %s@,"
    (if w.w_critical = [] then "n/a"
     else String.concat " -> " (List.map string_of_int w.w_critical));
  let children = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if n.n_parent >= 0 then
        Hashtbl.replace children n.n_parent
          (n :: Option.value ~default:[] (Hashtbl.find_opt children n.n_parent)))
    w.w_nodes;
  let ordered ns =
    List.sort (fun a b -> compare (a.n_heard, a.n_switch) (b.n_heard, b.n_switch)) ns
  in
  let rec pp_node indent n =
    Format.fprintf ppf "%s[h%d] sw %d heard %a" indent n.n_hop n.n_switch
      Time.pp n.n_heard;
    if n.n_parent >= 0 then begin
      Format.fprintf ppf " via sw %d port %d" n.n_parent n.n_via_port;
      match n.n_hop_ns with
      | Some d -> Format.fprintf ppf " (+%a)" Time.pp d
      | None -> ()
    end;
    (match n.n_heal_ns with
    | Some h -> Format.fprintf ppf " heal %a" Time.pp h
    | None -> ());
    if n.n_skeptic_ns > 0 then
      Format.fprintf ppf " skeptic %a" Time.pp n.n_skeptic_ns;
    Format.fprintf ppf "@,";
    List.iter
      (pp_node (indent ^ "  "))
      (ordered (Option.value ~default:[] (Hashtbl.find_opt children n.n_switch)))
  in
  Format.fprintf ppf "  propagation tree:@,";
  List.iter (pp_node "    ")
    (ordered (List.filter (fun n -> n.n_parent < 0) w.w_nodes));
  Format.fprintf ppf "@]"

(* --- JSON export --- *)

let json_opt_time = function Some v -> Json.Int v | None -> Json.Null

let json_dist = function
  | None -> Json.Null
  | Some d ->
    Json.Obj
      [ ("count", Json.Int d.d_count); ("p50_ns", Json.Int d.d_p50);
        ("p90_ns", Json.Int d.d_p90); ("max_ns", Json.Int d.d_max) ]

let json_node n =
  Json.Obj
    [ ("switch", Json.Int n.n_switch);
      ("parent", Json.Int n.n_parent);
      ("via_port", Json.Int n.n_via_port);
      ("hop", Json.Int n.n_hop);
      ("origin", Json.Int n.n_origin);
      ("heard_ns", Json.Int n.n_heard);
      ("position_ns", Json.Int n.n_position);
      ("loaded_ns", json_opt_time n.n_configured);
      ("enabled_ns", json_opt_time n.n_configured);
      ("hop_ns", json_opt_time n.n_hop_ns);
      ("heal_ns", json_opt_time n.n_heal_ns);
      ("skeptic_ns", Json.Int n.n_skeptic_ns) ]

let json_wave w =
  Json.Obj
    [ ("epoch", Json.Int (Int64.to_int w.w_epoch));
      ("origin", Json.Int w.w_origin);
      ("origin_label", Json.String w.w_origin_label);
      ("origin_ns", Json.Int w.w_origin_time);
      ("start_ns", Json.Int w.w_start);
      ("end_ns", Json.Int w.w_end);
      ("complete", Json.Bool w.w_complete);
      ("depth", Json.Int w.w_depth);
      ("fanout", Json.Int w.w_fanout);
      ("critical", Json.List (List.map (fun s -> Json.Int s) w.w_critical));
      ("hop_latency", json_dist w.w_hop);
      ("heal_latency", json_dist w.w_heal);
      ("front",
       Json.List
         (List.map
            (fun (at, hop, count) ->
              Json.List [ Json.Int at; Json.Int hop; Json.Int count ])
            w.w_front));
      ("nodes", Json.List (List.map json_node w.w_nodes)) ]

let to_json ~recorders tl =
  Json.Obj
    [ ("waves", Json.List (List.map json_wave (waves tl)));
      ("recorders",
       Json.List
         (List.map
            (fun (sw, entries) ->
              Json.Obj
                [ ("switch", Json.Int sw);
                  ("entries",
                   Json.List
                     (List.map
                        (fun fr ->
                          Json.Obj
                            [ ("t_ns", Json.Int fr.fr_time);
                              ("epoch", Json.Int (Int64.to_int fr.fr_epoch));
                              ("msg", Json.String fr.fr_msg) ])
                        entries)) ])
            recorders)) ]

(* --- Chrome trace export: one track per switch --- *)

let us_of_ns ns = Json.Float (float_of_int ns /. 1000.)

let to_trace_json tl =
  let events = ref [] in
  let emit e = events := e :: !events in
  emit
    (Json.Obj
       [ ("ph", Json.String "M"); ("pid", Json.Int 0); ("tid", Json.Int 0);
         ("name", Json.String "process_name");
         ("args", Json.Obj [ ("name", Json.String "causal waves") ]) ]);
  let span ~name ~tid ~epoch ~hop ~parent ~start ~stop =
    emit
      (Json.Obj
         [ ("ph", Json.String "X");
           ("name", Json.String name);
           ("cat", Json.String "causal");
           ("pid", Json.Int 0); ("tid", Json.Int tid);
           ("ts", us_of_ns start);
           ("dur", us_of_ns Time.(stop - start));
           ("args",
            Json.Obj
              [ ("epoch", Json.Int (Int64.to_int epoch));
                ("hop", Json.Int hop);
                ("parent", Json.Int parent);
                ("ns_start", Json.Int start);
                ("ns_dur", Json.Int Time.(stop - start)) ]) ])
  in
  List.iter
    (fun w ->
      List.iter
        (fun n ->
          let tag = Printf.sprintf "e%Ld" w.w_epoch in
          span ~name:(tag ^ "/tree") ~tid:n.n_switch ~epoch:w.w_epoch
            ~hop:n.n_hop ~parent:n.n_parent ~start:n.n_heard ~stop:n.n_position;
          match n.n_configured with
          | Some c ->
            span ~name:(tag ^ "/tables") ~tid:n.n_switch ~epoch:w.w_epoch
              ~hop:n.n_hop ~parent:n.n_parent ~start:n.n_position ~stop:c;
            (* Tables loaded and ports enabled are one instant, so this
               span has zero width; it keeps one row per milestone. *)
            span ~name:(tag ^ "/enable") ~tid:n.n_switch ~epoch:w.w_epoch
              ~hop:n.n_hop ~parent:n.n_parent ~start:c ~stop:c
          | None -> ())
        w.w_nodes)
    (waves tl);
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.String "ms") ]

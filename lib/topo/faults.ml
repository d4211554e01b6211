open Autonet_core
module Time = Autonet_sim.Time
module Rng = Autonet_sim.Rng

type event =
  | Link_down of Graph.link_id
  | Link_up of Graph.link_id
  | Switch_down of Graph.switch
  | Switch_up of Graph.switch

let pp_event ppf = function
  | Link_down l -> Format.fprintf ppf "link %d down" l
  | Link_up l -> Format.fprintf ppf "link %d up" l
  | Switch_down s -> Format.fprintf ppf "switch %d down" s
  | Switch_up s -> Format.fprintf ppf "switch %d up" s

(* Total deterministic order: constructor rank, then payload.  Link events
   rank before switch events and downs before ups so that, at one instant,
   a link both failed and repaired ends the instant repaired — the
   convention [sort] freezes for equal-time items. *)
let compare_event a b =
  let rank = function
    | Link_down _ -> 0
    | Link_up _ -> 1
    | Switch_down _ -> 2
    | Switch_up _ -> 3
  in
  let payload = function
    | Link_down x | Link_up x | Switch_down x | Switch_up x -> x
  in
  match Int.compare (rank a) (rank b) with
  | 0 -> Int.compare (payload a) (payload b)
  | c -> c

type item = { at : Time.t; event : event }

type schedule = item list

let compare_item a b =
  match Time.compare a.at b.at with
  | 0 -> compare_event a.event b.event
  | c -> c

let sort s = List.stable_sort compare_item s

let fail_and_repair ~link ~fail_at ~repair_at =
  if repair_at <= fail_at then invalid_arg "fail_and_repair: repair before failure";
  [ { at = fail_at; event = Link_down link };
    { at = repair_at; event = Link_up link } ]

let flapping_link ~link ~start ~period ~cycles =
  if cycles < 1 then invalid_arg "flapping_link: cycles must be >= 1";
  if period < 2 then
    (* With period 1 the integer half-period is 0, scheduling Link_down and
       Link_up at the same instant — a degenerate "flap" that never
       happens. *)
    invalid_arg "flapping_link: period must be >= 2";
  let half = period / 2 in
  List.concat
    (List.init cycles (fun i ->
         let base = start + (i * period) in
         [ { at = base; event = Link_down link };
           { at = base + half; event = Link_up link } ]))

let switch_crash ~switch ~at = [ { at; event = Switch_down switch } ]

let switch_reboot ~switch ~down_at ~up_at =
  if up_at <= down_at then invalid_arg "switch_reboot: up before down";
  [ { at = down_at; event = Switch_down switch };
    { at = up_at; event = Switch_up switch } ]

let cut_links g ~side =
  List.filter_map
    (fun (l : Graph.link) ->
      let sa, _ = l.a and sb, _ = l.b in
      if (not (Graph.is_loop l)) && side sa <> side sb then Some l.id else None)
    (Graph.links g)

let partition ?heal_at g ~side ~at =
  (match heal_at with
  | Some h when h <= at -> invalid_arg "partition: heal before cut"
  | Some _ | None -> ());
  List.concat_map
    (fun l ->
      { at; event = Link_down l }
      ::
      (match heal_at with
      | Some h -> [ { at = h; event = Link_up l } ]
      | None -> []))
    (cut_links g ~side)

(* --- Random schedules ------------------------------------------------- *)

(* State tracked while emitting actions in chronological order, so that
   the generated sequence is *plausible* (repairs follow failures, at
   least one switch always stays powered).  The protocol must survive any
   sequence, so occasional redundancy (failing an already-failed link
   after a flap, say) is acceptable — but never powering off the whole
   network matters: an all-dark network has no live component to
   converge, which would make the campaign oracle vacuous. *)
type gen_state = {
  g : Graph.t;
  rng : Rng.t;
  horizon : Time.t;
  link_ids : Graph.link_id array;
  link_down : (Graph.link_id, unit) Hashtbl.t;
  switch_down : (Graph.switch, unit) Hashtbl.t;
  mutable powered : int;
}

let live_links st =
  Array.to_list
    (Array.of_seq
       (Seq.filter
          (fun l -> not (Hashtbl.mem st.link_down l))
          (Array.to_seq st.link_ids)))

let clampt st t = Stdlib.min t st.horizon

let gen_action st ~at =
  let pick_link ids =
    match ids with [] -> None | _ -> Some (Rng.pick st.rng ids)
  in
  let fail_link () =
    match pick_link (live_links st) with
    | None -> []
    | Some l ->
      Hashtbl.replace st.link_down l ();
      [ { at; event = Link_down l } ]
  in
  let repair_link () =
    match pick_link (List.of_seq (Hashtbl.to_seq_keys st.link_down)) with
    | None -> []
    | Some l ->
      Hashtbl.remove st.link_down l;
      [ { at; event = Link_up l } ]
  in
  let crash () =
    if st.powered <= 1 then []
    else begin
      let candidates =
        List.filter
          (fun s -> not (Hashtbl.mem st.switch_down s))
          (Graph.switches st.g)
      in
      match candidates with
      | [] -> []
      | _ ->
        let s = Rng.pick st.rng candidates in
        Hashtbl.replace st.switch_down s ();
        st.powered <- st.powered - 1;
        [ { at; event = Switch_down s } ]
    end
  in
  let reboot () =
    match List.of_seq (Hashtbl.to_seq_keys st.switch_down) with
    | [] -> []
    | downed ->
      let s = Rng.pick st.rng downed in
      Hashtbl.remove st.switch_down s;
      st.powered <- st.powered + 1;
      [ { at; event = Switch_up s } ]
  in
  let flap () =
    match pick_link (live_links st) with
    | None -> []
    | Some l ->
      (* Down now, back up a short random interval later: the link ends
         the flap live, which is what makes flaps distinct from plain
         failures for the skeptics. *)
      let delta = 1 + Rng.int st.rng (Stdlib.max 1 (st.horizon / 16)) in
      let up_at = clampt st (Time.add at delta) in
      if up_at <= at then [ { at; event = Link_down l }; { at = at + 1; event = Link_up l } ]
      else [ { at; event = Link_down l }; { at = up_at; event = Link_up l } ]
  in
  let partition_now () =
    (* A random proper subset of switches on one side of the cut; healed
       later with probability 1/2. *)
    let n = Graph.switch_count st.g in
    if n < 2 then []
    else begin
      let side_bits = Array.init n (fun _ -> Rng.bool st.rng) in
      let any v = Array.exists (fun b -> b = v) side_bits in
      if not (any true && any false) then []
      else begin
        let cut = cut_links st.g ~side:(fun s -> side_bits.(s)) in
        List.iter (fun l -> Hashtbl.replace st.link_down l ()) cut;
        let downs = List.map (fun l -> { at; event = Link_down l }) cut in
        if Rng.bool st.rng then begin
          let delta = 1 + Rng.int st.rng (Stdlib.max 1 (st.horizon / 8)) in
          let heal_at = clampt st (Time.add at (Stdlib.max 1 delta)) in
          if heal_at > at then begin
            List.iter (fun l -> Hashtbl.remove st.link_down l) cut;
            downs @ List.map (fun l -> { at = heal_at; event = Link_up l }) cut
          end
          else downs
        end
        else downs
      end
    end
  in
  (* Weighted pick; actions that turn out impossible fall back to a link
     failure, and if even that is impossible the slot is skipped. *)
  let attempt =
    match Rng.int st.rng 100 with
    | r when r < 28 -> fail_link ()
    | r when r < 48 -> repair_link ()
    | r when r < 62 -> crash ()
    | r when r < 78 -> reboot ()
    | r when r < 92 -> flap ()
    | _ -> partition_now ()
  in
  match attempt with [] -> fail_link () | items -> items

let random ~rng ~graph ~horizon ~events =
  if events < 1 then invalid_arg "Faults.random: events must be >= 1";
  if horizon < 2 then invalid_arg "Faults.random: horizon must be >= 2";
  let st =
    { g = graph;
      rng;
      horizon;
      link_ids =
        Array.of_list (List.map (fun (l : Graph.link) -> l.id) (Graph.links graph));
      link_down = Hashtbl.create 16;
      switch_down = Hashtbl.create 8;
      powered = Graph.switch_count graph }
  in
  (* Action instants drawn uniformly, then visited chronologically so the
     generator's state tracking matches the simulated order. *)
  let times = Array.init events (fun _ -> Rng.int rng horizon) in
  Array.sort compare times;
  let items =
    Array.to_list times |> List.concat_map (fun at -> gen_action st ~at)
  in
  sort items

(* --- Validation ------------------------------------------------------- *)

let validate ?graph s =
  let ( let* ) = Result.bind in
  let rec items i = function
    | [] -> Ok ()
    | { at; event } :: rest ->
      let* () =
        if at < 0 then
          Error (Printf.sprintf "item %d: negative time %d" i at)
        else Ok ()
      in
      let id =
        match event with
        | Link_down x | Link_up x | Switch_down x | Switch_up x -> x
      in
      let* () =
        if id < 0 then
          Error (Printf.sprintf "item %d: negative component id %d" i id)
        else Ok ()
      in
      let* () =
        match graph with
        | None -> Ok ()
        | Some g -> (
          match event with
          | Link_down l | Link_up l ->
            if Graph.link g l = None then
              Error (Printf.sprintf "item %d: link %d not in the graph" i l)
            else Ok ()
          | Switch_down sw | Switch_up sw ->
            if sw >= Graph.switch_count g then
              Error
                (Printf.sprintf "item %d: switch %d not in the graph" i sw)
            else Ok ())
      in
      items (i + 1) rest
  in
  let rec sorted i = function
    | a :: (b :: _ as rest) ->
      if compare_item a b > 0 then
        Error (Printf.sprintf "items %d and %d out of order" i (i + 1))
      else sorted (i + 1) rest
    | _ -> Ok ()
  in
  let* () = items 0 s in
  sorted 0 s

(* --- Serialization ---------------------------------------------------- *)

let event_to_string = function
  | Link_down l -> Printf.sprintf "link_down %d" l
  | Link_up l -> Printf.sprintf "link_up %d" l
  | Switch_down s -> Printf.sprintf "switch_down %d" s
  | Switch_up s -> Printf.sprintf "switch_up %d" s

let event_of_string str =
  match String.split_on_char ' ' (String.trim str) with
  | [ kind; id ] -> (
    match int_of_string_opt id with
    | None -> Error (str ^ ": malformed component id")
    | Some id -> (
      match kind with
      | "link_down" -> Ok (Link_down id)
      | "link_up" -> Ok (Link_up id)
      | "switch_down" -> Ok (Switch_down id)
      | "switch_up" -> Ok (Switch_up id)
      | _ -> Error (str ^ ": unknown event kind")))
  | _ -> Error (str ^ ": expected KIND ID")

let schedule_to_string s =
  String.concat ""
    (List.map
       (fun { at; event } ->
         Printf.sprintf "%d %s\n" at (event_to_string event))
       s)

let schedule_of_string str =
  let ( let* ) = Result.bind in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' str)
  in
  let* items =
    List.fold_left
      (fun acc line ->
        let* acc = acc in
        let line = String.trim line in
        match String.index_opt line ' ' with
        | None -> Error (line ^ ": expected TIME KIND ID")
        | Some i -> (
          match int_of_string_opt (String.sub line 0 i) with
          | None -> Error (line ^ ": malformed time")
          | Some at ->
            let* event =
              event_of_string
                (String.sub line (i + 1) (String.length line - i - 1))
            in
            Ok ({ at; event } :: acc)))
      (Ok []) lines
  in
  Ok (List.rev items)

(* --- Schedule surgery (fuzzer mutations) ------------------------------ *)

(* Each operator returns a sorted schedule and preserves {!validate}'s
   invariants given valid inputs: times are clamped to [[0, horizon]] and
   retargeting only ever picks component ids that exist in the graph.
   Operators are deterministic in the rng, which is what lets a fuzz run
   replay byte-identically from its campaign seed. *)

let nth_item s i = List.nth s i

let clamp_at ~horizon at = Stdlib.max 0 (Stdlib.min at horizon)

let splice ~rng a b =
  match (a, b) with
  | [], s | s, [] -> sort s
  | _ ->
    let last s =
      List.fold_left (fun acc it -> Time.max acc it.at) Time.zero s
    in
    let hi = 1 + Stdlib.max (last a) (last b) in
    let cut = Rng.int rng hi in
    sort
      (List.filter (fun it -> it.at < cut) a
      @ List.filter (fun it -> it.at >= cut) b)

let duplicate_one ~rng ~horizon s =
  match s with
  | [] -> []
  | _ ->
    let it = nth_item s (Rng.int rng (List.length s)) in
    let jitter = Rng.int rng (Stdlib.max 2 (horizon / 8)) in
    let at =
      clamp_at ~horizon
        (if Rng.bool rng then Time.add it.at jitter else Time.sub it.at jitter)
    in
    sort ({ it with at } :: s)

let shift_one ~rng ~horizon s =
  match s with
  | [] -> []
  | _ ->
    let i = Rng.int rng (List.length s) in
    let delta = 1 + Rng.int rng (Stdlib.max 1 (horizon / 4)) in
    sort
      (List.mapi
         (fun j it ->
           if j <> i then it
           else
             let at =
               clamp_at ~horizon
                 (if Rng.bool rng then Time.add it.at delta
                  else Time.sub it.at delta)
             in
             { it with at })
         s)

let retarget_one ~rng ~graph s =
  match s with
  | [] -> []
  | _ ->
    let links =
      List.map (fun (l : Graph.link) -> l.id) (Graph.links graph)
    in
    let switches = Graph.switches graph in
    let i = Rng.int rng (List.length s) in
    sort
      (List.mapi
         (fun j it ->
           if j <> i then it
           else
             let event =
               match it.event with
               | Link_down _ when links <> [] -> Link_down (Rng.pick rng links)
               | Link_up _ when links <> [] -> Link_up (Rng.pick rng links)
               | Switch_down _ when switches <> [] ->
                 Switch_down (Rng.pick rng switches)
               | Switch_up _ when switches <> [] ->
                 Switch_up (Rng.pick rng switches)
               | e -> e
             in
             { it with event })
         s)

let drop_one ~rng s =
  match s with
  | [] | [ _ ] -> sort s
  | _ ->
    let i = Rng.int rng (List.length s) in
    sort (List.filteri (fun j _ -> j <> i) s)

(* [merge] and [thin] are the fuzzer's range-expanding pair: the point
   operators above keep a schedule's event count within +-1 of its
   parent, so a mutation-only fuzzer could never leave the density band
   the generator draws from.  Merging doubles the fault density in one
   step; thinning halves it. *)

let merge a b = List.merge compare_item (sort a) (sort b)

(* The time-dilation pair.  Density in *time* is the axis neither the
   generator nor the operators above move: stretching gives every fault
   its own quiet window (distinct reconfigurations), squeezing piles
   faults into the same detection windows (superseded epochs, skeptic
   backoffs).  Both are monotone maps of the timestamps, so sortedness
   survives up to ties, which [sort] re-normalizes. *)

let stretch s = sort (List.map (fun it -> { it with at = 2 * it.at }) s)

let squeeze s = sort (List.map (fun it -> { it with at = it.at / 2 }) s)

let thin ~rng s =
  match s with
  | [] | [ _ ] -> sort s
  | _ ->
    let kept = List.filter (fun _ -> Rng.bool rng) s in
    (* Keep at least one item so a thinned schedule stays a schedule. *)
    sort (if kept = [] then [ nth_item s (Rng.int rng (List.length s)) ] else kept)

let pp ppf s =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun { at; event } ->
      Format.fprintf ppf "%a: %a@," Time.pp at pp_event event)
    (sort s);
  Format.fprintf ppf "@]"

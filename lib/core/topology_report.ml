open Autonet_net

type port_desc =
  | Unused
  | Host_port
  | Switch_link of { peer : Uid.t; peer_port : int }

let equal_port_desc a b =
  match (a, b) with
  | Unused, Unused | Host_port, Host_port -> true
  | Switch_link x, Switch_link y ->
    Uid.equal x.peer y.peer && x.peer_port = y.peer_port
  | (Unused | Host_port | Switch_link _), _ -> false

let pp_port_desc ppf = function
  | Unused -> Format.pp_print_string ppf "unused"
  | Host_port -> Format.pp_print_string ppf "host"
  | Switch_link { peer; peer_port } ->
    Format.fprintf ppf "link(%a.p%d)" Uid.pp peer peer_port

type switch_desc = {
  uid : Uid.t;
  proposed_number : int;
  ports : port_desc array;
}

type t = {
  report_max_ports : int;
  by_uid : switch_desc Uid.Map.t;
  mutable bytes : string option;  (* [encode]'s output, once [wire] ran *)
}

let max_ports t = t.report_max_ports

let singleton ~max_ports desc =
  if Array.length desc.ports <> max_ports + 1 then
    invalid_arg "Topology_report.singleton: ports array length mismatch";
  { report_max_ports = max_ports;
    by_uid = Uid.Map.singleton desc.uid desc;
    bytes = None }

let switch_desc ~uid ~proposed_number ~max_ports used =
  let ports = Array.make (max_ports + 1) Unused in
  List.iter
    (fun (p, d) ->
      if p < 1 || p > max_ports then
        invalid_arg "Topology_report.switch_desc: port out of range";
      ports.(p) <- d)
    used;
  { uid; proposed_number; ports }

let equal_desc a b =
  Uid.equal a.uid b.uid
  && a.proposed_number = b.proposed_number
  && Array.length a.ports = Array.length b.ports
  && Array.for_all2 equal_port_desc a.ports b.ports

let merge a b =
  if a.report_max_ports <> b.report_max_ports then
    invalid_arg "Topology_report.merge: differing max_ports";
  let by_uid =
    Uid.Map.union
      (fun uid da db ->
        if equal_desc da db then Some da
        else
          invalid_arg
            (Format.asprintf
               "Topology_report.merge: conflicting descriptions of %a" Uid.pp
               uid))
      a.by_uid b.by_uid
  in
  { report_max_ports = a.report_max_ports; by_uid; bytes = None }

let switches t = List.map snd (Uid.Map.bindings t.by_uid)

let size t = Uid.Map.cardinal t.by_uid

let mem t uid = Uid.Map.mem uid t.by_uid

let find t uid = Uid.Map.find_opt uid t.by_uid

let proposals t g =
  List.filter_map
    (fun d ->
      Option.map (fun s -> (s, d.proposed_number)) (Graph.switch_of_uid g d.uid))
    (switches t)

let closed t =
  Uid.Map.for_all
    (fun _ d ->
      let ok = ref true in
      Array.iteri
        (fun p desc ->
          match desc with
          | Switch_link { peer; peer_port } -> begin
            match Uid.Map.find_opt peer t.by_uid with
            | None -> ok := false
            | Some pd ->
              if
                not
                  (peer_port >= 1
                  && peer_port < Array.length pd.ports
                  && equal_port_desc pd.ports.(peer_port)
                       (Switch_link { peer = d.uid; peer_port = p }))
              then ok := false
          end
          | Unused | Host_port -> ())
        d.ports;
      !ok)
    t.by_uid

let to_graph t =
  let g = Graph.create ~max_ports:t.report_max_ports () in
  let descs = switches t in
  List.iter (fun d -> ignore (Graph.add_switch g ~uid:d.uid)) descs;
  List.iter
    (fun d ->
      let s =
        match Graph.switch_of_uid g d.uid with
        | Some s -> s
        | None -> assert false
      in
      Array.iteri
        (fun p desc ->
          if p >= 1 then
            match desc with
            | Unused -> ()
            | Host_port ->
              Graph.attach_host g ~host_uid:d.uid ~host_port:0 (s, p)
            | Switch_link { peer; peer_port } -> (
              match Graph.switch_of_uid g peer with
              | None -> () (* peer not in the report: dangling link *)
              | Some s' ->
                (* Connect each cable once: from the end that sorts first
                   by (uid, port). *)
                let my_key = (Uid.to_int d.uid, p)
                and peer_key = (Uid.to_int peer, peer_port) in
                if my_key < peer_key then
                  (* Only if the peer's description agrees. *)
                  match Uid.Map.find_opt peer t.by_uid with
                  | Some pd
                    when peer_port >= 1
                         && peer_port < Array.length pd.ports
                         && equal_port_desc
                              pd.ports.(peer_port)
                              (Switch_link { peer = d.uid; peer_port = p }) ->
                    ignore (Graph.connect g (s, p) (s', peer_port))
                  | Some _ | None -> ()))
        d.ports)
    descs;
  g

let equal a b =
  a == b
  || a.report_max_ports = b.report_max_ports
     && Uid.Map.equal equal_desc a.by_uid b.by_uid

let encode_port_desc w = function
  | Unused -> Wire.Writer.u8 w 0
  | Host_port -> Wire.Writer.u8 w 1
  | Switch_link { peer; peer_port } ->
    Wire.Writer.u8 w 2;
    Wire.Writer.u48 w (Uid.to_int peer);
    Wire.Writer.u8 w peer_port

let decode_port_desc ~max_ports r =
  match Wire.Reader.u8 r with
  | 0 -> Unused
  | 1 -> Host_port
  | 2 ->
    let peer = Uid.of_int (Wire.Reader.u48 r) in
    let peer_port = Wire.Reader.u8 r in
    if peer_port < 1 || peer_port > max_ports then
      raise (Wire.Malformed (Printf.sprintf "peer port %d" peer_port));
    Switch_link { peer; peer_port }
  | n -> raise (Wire.Malformed (Printf.sprintf "port desc tag %d" n))

let encode w t =
  Wire.Writer.u8 w t.report_max_ports;
  Wire.Writer.list w
    (fun d ->
      Wire.Writer.u48 w (Uid.to_int d.uid);
      Wire.Writer.u16 w d.proposed_number;
      for p = 1 to t.report_max_ports do
        encode_port_desc w d.ports.(p)
      done)
    (switches t)

let wire t =
  match t.bytes with
  | Some s -> s
  | None ->
    let w = Wire.Writer.create () in
    encode w t;
    let s = Wire.Writer.contents w in
    t.bytes <- Some s;
    s

(* Only what [to_graph] can build is accepted, and only in the order
   [encode] writes it, so an accepted encoding is the one [encode] would
   produce for the result. *)
let decode_fresh r =
  let max_ports = Wire.Reader.u8 r in
  if max_ports < 1 || max_ports > 15 then
    raise (Wire.Malformed (Printf.sprintf "max_ports %d" max_ports));
  let last = ref (-1) in
  let descs =
    Wire.Reader.list r (fun r ->
        let uid = Wire.Reader.u48 r in
        if uid <= !last then
          raise (Wire.Malformed "switch UIDs not strictly ascending");
        last := uid;
        let proposed_number = Wire.Reader.u16 r in
        let ports = Array.make (max_ports + 1) Unused in
        for p = 1 to max_ports do
          ports.(p) <- decode_port_desc ~max_ports r
        done;
        { uid = Uid.of_int uid; proposed_number; ports })
  in
  let by_uid =
    List.fold_left
      (fun m d -> Uid.Map.add d.uid d m)
      Uid.Map.empty descs
  in
  { report_max_ports = max_ports; by_uid; bytes = None }

let decode ?(among = []) r =
  let memoized c =
    match c.bytes with
    | Some s -> Wire.Reader.skip_prefix r s
    | None -> false
  in
  match List.find_opt memoized among with
  | Some c -> c
  | None -> decode_fresh r

let pp ppf t =
  Format.fprintf ppf "@[<v>report (%d switches):@," (size t);
  List.iter
    (fun d ->
      Format.fprintf ppf "  %a proposes %d:" Uid.pp d.uid d.proposed_number;
      Array.iteri
        (fun p desc ->
          if p >= 1 && desc <> Unused then
            Format.fprintf ppf " p%d=%a" p pp_port_desc desc)
        d.ports;
      Format.fprintf ppf "@,")
    (switches t);
  Format.fprintf ppf "@]"

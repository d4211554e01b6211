open Autonet_net
open Autonet_core

type srp_request = Get_state | Get_log of { max_entries : int } | Get_topology

type srp_response =
  | State of {
      uid : Uid.t;
      epoch : Epoch.t;
      configured : bool;
      port_states : (int * Port_state.t) list;
    }
  | Log_entries of (int * string) list
  | Topology of Topology_report.t
  | No_data

type t =
  | Tree_position of {
      epoch : Epoch.t;
      seq : int;
      position : Spanning_tree.Position.t;
    }
  | Tree_ack of { epoch : Epoch.t; seq : int; now_my_parent : bool }
  | Stable_report of { epoch : Epoch.t; seq : int; report : Topology_report.t }
  | Unstable_notice of { epoch : Epoch.t; seq : int }
  | Report_ack of { epoch : Epoch.t; seq : int }
  | Complete of { epoch : Epoch.t; seq : int; report : Topology_report.t }
  | Complete_ack of { epoch : Epoch.t; seq : int }
  | Conn_test of {
      token : int;
      src_uid : Uid.t;
      src_port : int;
      sw_version : int;
    }
  | Conn_reply of {
      token : int;
      orig_uid : Uid.t;
      orig_port : int;
      responder_uid : Uid.t;
      responder_port : int;
      sw_version : int;
    }
  | Host_query of { token : int; host_uid : Uid.t }
  | Host_addr of { token : int; address : Short_address.t }
  | Version_offer of { version : int }
  | Srp_request of {
      route : int list;
      reply_route : int list;
      request : srp_request;
    }
  | Srp_response of { route : int list; response : srp_response }

let packet_type = function
  | Tree_position _ | Tree_ack _ | Stable_report _ | Unstable_notice _
  | Report_ack _ | Complete _ | Complete_ack _ ->
    Packet.Reconfiguration
  | Conn_test _ | Conn_reply _ | Host_query _ | Host_addr _
  | Version_offer _ ->
    Packet.Connectivity
  | Srp_request _ | Srp_response _ -> Packet.Srp

(* --- Codec helpers --- *)

module W = Wire.Writer
module R = Wire.Reader

let encode_epoch w e = W.u64 w (Epoch.to_int64 e)
let decode_epoch r = Epoch.of_int64 (R.u64 r)

let encode_position w (p : Spanning_tree.Position.t) =
  W.u48 w (Uid.to_int p.root);
  W.u16 w p.level;
  W.u48 w (Uid.to_int p.parent);
  W.u8 w p.parent_port

let decode_position r =
  let root = Uid.of_int (R.u48 r) in
  let level = R.u16 r in
  let parent = Uid.of_int (R.u48 r) in
  let parent_port = R.u8 r in
  { Spanning_tree.Position.root; level; parent; parent_port }

let encode_port_list w l = W.list w (fun p -> W.u8 w p) l
let decode_port_list r = R.list r (fun r -> R.u8 r)

let port_state_tag = function
  | Port_state.Dead -> 0
  | Checking -> 1
  | Host -> 2
  | Switch_who -> 3
  | Switch_loop -> 4
  | Switch_good -> 5

let port_state_of_tag = function
  | 0 -> Port_state.Dead
  | 1 -> Checking
  | 2 -> Host
  | 3 -> Switch_who
  | 4 -> Switch_loop
  | 5 -> Switch_good
  | n -> raise (Wire.Malformed (Printf.sprintf "port state tag %d" n))

let encode_srp_request w = function
  | Get_state -> W.u8 w 0
  | Get_log { max_entries } ->
    W.u8 w 1;
    W.u16 w max_entries
  | Get_topology -> W.u8 w 2

let decode_srp_request r =
  match R.u8 r with
  | 0 -> Get_state
  | 1 -> Get_log { max_entries = R.u16 r }
  | 2 -> Get_topology
  | n -> raise (Wire.Malformed (Printf.sprintf "srp request tag %d" n))

let encode_srp_response w = function
  | State { uid; epoch; configured; port_states } ->
    W.u8 w 0;
    W.u48 w (Uid.to_int uid);
    encode_epoch w epoch;
    W.u8 w (if configured then 1 else 0);
    W.list w
      (fun (p, st) ->
        W.u8 w p;
        W.u8 w (port_state_tag st))
      port_states
  | Log_entries entries ->
    W.u8 w 1;
    W.list w
      (fun (ts, msg) ->
        W.u64 w (Int64.of_int ts);
        W.lstring w msg)
      entries
  | Topology report ->
    W.u8 w 2;
    Topology_report.encode w report
  | No_data -> W.u8 w 3

let decode_srp_response r =
  match R.u8 r with
  | 0 ->
    let uid = Uid.of_int (R.u48 r) in
    let epoch = decode_epoch r in
    let configured = R.u8 r = 1 in
    let port_states =
      R.list r (fun r ->
          let p = R.u8 r in
          let st = port_state_of_tag (R.u8 r) in
          (p, st))
    in
    State { uid; epoch; configured; port_states }
  | 1 ->
    Log_entries
      (R.list r (fun r ->
           let ts = Int64.to_int (R.u64 r) in
           let msg = R.lstring r in
           (ts, msg)))
  | 2 -> Topology (Topology_report.decode r)
  | 3 -> No_data
  | n -> raise (Wire.Malformed (Printf.sprintf "srp response tag %d" n))

(* A report message's size is known before it is written: tag, epoch
   and sequence number, then the report's memoized bytes.  A writer of
   exactly that size hands its buffer over as the result, so the report
   is copied once, straight into the message. *)
let initial_size = function
  | Stable_report { report; _ } | Complete { report; _ } ->
    1 + 8 + 4 + String.length (Topology_report.wire report)
  | _ -> 64

let encode msg =
  let w = W.create ~initial_size:(initial_size msg) () in
  (match msg with
  | Tree_position { epoch; seq; position } ->
    W.u8 w 0;
    encode_epoch w epoch;
    W.u32 w seq;
    encode_position w position
  | Tree_ack { epoch; seq; now_my_parent } ->
    W.u8 w 1;
    encode_epoch w epoch;
    W.u32 w seq;
    W.u8 w (if now_my_parent then 1 else 0)
  | Stable_report { epoch; seq; report } ->
    W.u8 w 2;
    encode_epoch w epoch;
    W.u32 w seq;
    W.string w (Topology_report.wire report)
  | Report_ack { epoch; seq } ->
    W.u8 w 3;
    encode_epoch w epoch;
    W.u32 w seq
  | Complete { epoch; seq; report } ->
    W.u8 w 4;
    encode_epoch w epoch;
    W.u32 w seq;
    W.string w (Topology_report.wire report)
  | Complete_ack { epoch; seq } ->
    W.u8 w 5;
    encode_epoch w epoch;
    W.u32 w seq
  | Conn_test { token; src_uid; src_port; sw_version } ->
    W.u8 w 6;
    W.u32 w token;
    W.u48 w (Uid.to_int src_uid);
    W.u8 w src_port;
    W.u32 w sw_version
  | Conn_reply
      { token; orig_uid; orig_port; responder_uid; responder_port; sw_version }
    ->
    W.u8 w 7;
    W.u32 w token;
    W.u48 w (Uid.to_int orig_uid);
    W.u8 w orig_port;
    W.u48 w (Uid.to_int responder_uid);
    W.u8 w responder_port;
    W.u32 w sw_version
  | Host_query { token; host_uid } ->
    W.u8 w 8;
    W.u32 w token;
    W.u48 w (Uid.to_int host_uid)
  | Host_addr { token; address } ->
    W.u8 w 9;
    W.u32 w token;
    W.u16 w (Short_address.to_int address)
  | Srp_request { route; reply_route; request } ->
    W.u8 w 10;
    encode_port_list w route;
    encode_port_list w reply_route;
    encode_srp_request w request
  | Srp_response { route; response } ->
    W.u8 w 11;
    encode_port_list w route;
    encode_srp_response w response
  | Unstable_notice { epoch; seq } ->
    W.u8 w 12;
    encode_epoch w epoch;
    W.u32 w seq
  | Version_offer { version } ->
    W.u8 w 13;
    W.u32 w version);
  W.contents w

let decode ?epochs s =
  let r = R.of_string s in
  let msg =
    match R.u8 r with
    | 0 ->
      let epoch = decode_epoch r in
      let seq = R.u32 r in
      let position = decode_position r in
      Tree_position { epoch; seq; position }
    | 1 ->
      let epoch = decode_epoch r in
      let seq = R.u32 r in
      let now_my_parent = R.u8 r = 1 in
      Tree_ack { epoch; seq; now_my_parent }
    | 2 ->
      let epoch = decode_epoch r in
      let seq = R.u32 r in
      let report = Topology_report.decode r in
      Stable_report { epoch; seq; report }
    | 3 ->
      let epoch = decode_epoch r in
      let seq = R.u32 r in
      Report_ack { epoch; seq }
    | 4 ->
      let epoch = decode_epoch r in
      let seq = R.u32 r in
      let among = Option.fold ~none:[] ~some:Epoch_cache.reports epochs in
      let report = Topology_report.decode ~among r in
      Complete { epoch; seq; report }
    | 5 ->
      let epoch = decode_epoch r in
      let seq = R.u32 r in
      Complete_ack { epoch; seq }
    | 6 ->
      let token = R.u32 r in
      let src_uid = Uid.of_int (R.u48 r) in
      let src_port = R.u8 r in
      let sw_version = R.u32 r in
      Conn_test { token; src_uid; src_port; sw_version }
    | 7 ->
      let token = R.u32 r in
      let orig_uid = Uid.of_int (R.u48 r) in
      let orig_port = R.u8 r in
      let responder_uid = Uid.of_int (R.u48 r) in
      let responder_port = R.u8 r in
      let sw_version = R.u32 r in
      Conn_reply
        { token; orig_uid; orig_port; responder_uid; responder_port; sw_version }
    | 8 ->
      let token = R.u32 r in
      let host_uid = Uid.of_int (R.u48 r) in
      Host_query { token; host_uid }
    | 9 ->
      let token = R.u32 r in
      let address = Short_address.of_int (R.u16 r) in
      Host_addr { token; address }
    | 10 ->
      let route = decode_port_list r in
      let reply_route = decode_port_list r in
      let request = decode_srp_request r in
      Srp_request { route; reply_route; request }
    | 11 ->
      let route = decode_port_list r in
      let response = decode_srp_response r in
      Srp_response { route; response }
    | 12 ->
      let epoch = decode_epoch r in
      let seq = R.u32 r in
      Unstable_notice { epoch; seq }
    | 13 -> Version_offer { version = R.u32 r }
    | n -> raise (Wire.Malformed (Printf.sprintf "message tag %d" n))
  in
  R.expect_end r;
  msg

let to_packet ?trace msg =
  Packet.make ?trace
    ~dst:(Short_address.one_hop ~port:1)
    ~src:Short_address.local_switch ~typ:(packet_type msg) ~body:(encode msg)
    ()

let of_packet ?epochs (p : Packet.t) = decode ?epochs p.body

let wire_size msg = Packet.wire_size (to_packet msg)

let epoch_of = function
  | Tree_position { epoch; _ }
  | Tree_ack { epoch; _ }
  | Stable_report { epoch; _ }
  | Unstable_notice { epoch; _ }
  | Report_ack { epoch; _ }
  | Complete { epoch; _ }
  | Complete_ack { epoch; _ } ->
    Some epoch
  | Conn_test _ | Conn_reply _ | Host_query _ | Host_addr _ | Srp_request _
  | Srp_response _ | Version_offer _ ->
    None

let pp ppf = function
  | Tree_position { epoch; seq; position } ->
    Format.fprintf ppf "tree-position(%a seq=%d %a)" Epoch.pp epoch seq
      Spanning_tree.Position.pp position
  | Tree_ack { epoch; seq; now_my_parent } ->
    Format.fprintf ppf "tree-ack(%a seq=%d parent=%b)" Epoch.pp epoch seq
      now_my_parent
  | Stable_report { epoch; seq; report } ->
    Format.fprintf ppf "stable-report(%a seq=%d %d switches)" Epoch.pp epoch
      seq (Topology_report.size report)
  | Unstable_notice { epoch; seq } ->
    Format.fprintf ppf "unstable(%a seq=%d)" Epoch.pp epoch seq
  | Report_ack { epoch; seq } ->
    Format.fprintf ppf "report-ack(%a seq=%d)" Epoch.pp epoch seq
  | Complete { epoch; seq; report } ->
    Format.fprintf ppf "complete(%a seq=%d %d switches)" Epoch.pp epoch seq
      (Topology_report.size report)
  | Complete_ack { epoch; seq } ->
    Format.fprintf ppf "complete-ack(%a seq=%d)" Epoch.pp epoch seq
  | Conn_test { token; src_uid; src_port; _ } ->
    Format.fprintf ppf "conn-test(#%d from %a.p%d)" token Uid.pp src_uid src_port
  | Conn_reply { token; responder_uid; responder_port; _ } ->
    Format.fprintf ppf "conn-reply(#%d by %a.p%d)" token Uid.pp responder_uid
      responder_port
  | Host_query { token; host_uid } ->
    Format.fprintf ppf "host-query(#%d %a)" token Uid.pp host_uid
  | Host_addr { token; address } ->
    Format.fprintf ppf "host-addr(#%d %a)" token Short_address.pp address
  | Srp_request { route; _ } ->
    Format.fprintf ppf "srp-request(%d hops left)" (List.length route)
  | Srp_response { route; _ } ->
    Format.fprintf ppf "srp-response(%d hops left)" (List.length route)
  | Version_offer { version } ->
    Format.fprintf ppf "version-offer(v%d)" version

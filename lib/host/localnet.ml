open Autonet_net
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time

type stats = {
  client_sent : int;
  client_received : int;
  broadcast_data_sent : int;
  arp_requests_sent : int;
  arp_replies_sent : int;
  announcements_sent : int;
  misaddressed_dropped : int;
  dropped_no_address : int;
  encrypted_sent : int;
  encrypted_received : int;
  undecryptable_dropped : int;
}

type t = {
  engine : Engine.t;
  uid : Uid.t;
  transmit : Packet.t -> unit;
  my_address : unit -> Short_address.t option;
  uid_cache : Uid_cache.t;
  keys : (int, Crypto.key) Hashtbl.t;          (* by key id, for receive *)
  peer_keys : (int, Crypto.key) Hashtbl.t;     (* by peer Uid, for send *)
  mutable client_rx : (Eth.t -> unit) option;
  mutable st : stats;
}

let create ~engine ~host_uid ~transmit ~my_address () =
  { engine;
    uid = host_uid;
    transmit;
    my_address;
    uid_cache = Uid_cache.create ();
    keys = Hashtbl.create 4;
    peer_keys = Hashtbl.create 4;
    client_rx = None;
    st =
      { client_sent = 0;
        client_received = 0;
        broadcast_data_sent = 0;
        arp_requests_sent = 0;
        arp_replies_sent = 0;
        announcements_sent = 0;
        misaddressed_dropped = 0;
        dropped_no_address = 0;
        encrypted_sent = 0;
        encrypted_received = 0;
        undecryptable_dropped = 0 } }

let set_peer_key t ~peer key =
  Hashtbl.replace t.peer_keys (Uid.to_int peer) key;
  Hashtbl.replace t.keys (Crypto.key_id key) key

let host_uid t = t.uid
let cache t = t.uid_cache
let set_client_rx t f = t.client_rx <- Some f
let stats t = t.st

let now t = Engine.now t.engine

let wrap ?enc_info t ~dst eth =
  match t.my_address () with
  | None -> None
  | Some src -> Some (Packet.client ?enc_info ~dst ~src eth)

let send_arp_request t ~to_addr ~target =
  match wrap t ~dst:to_addr (Arp.to_eth ~src:t.uid ~dst:target (Arp.Request { target })) with
  | None -> ()
  | Some p ->
    t.st <- { t.st with arp_requests_sent = t.st.arp_requests_sent + 1 };
    t.transmit p

let send_arp_reply t ~to_addr ~to_uid =
  match wrap t ~dst:to_addr (Arp.to_eth ~src:t.uid ~dst:to_uid Arp.Reply) with
  | None -> ()
  | Some p ->
    t.st <- { t.st with arp_replies_sent = t.st.arp_replies_sent + 1 };
    t.transmit p

let announce_address_change t =
  match
    wrap t ~dst:Short_address.broadcast_hosts
      (Arp.to_eth ~src:t.uid ~dst:Eth.broadcast_uid Arp.Announce)
  with
  | None -> ()
  | Some p ->
    t.st <- { t.st with announcements_sent = t.st.announcements_sent + 1 };
    t.transmit p

(* Directed ARP when an entry is stale, with the paper's two-second
   confirmation window before the entry decays to broadcast. *)
let refresh_stale_entry t dst_uid current_addr =
  let asked_at = now t in
  send_arp_request t ~to_addr:current_addr ~target:dst_uid;
  ignore
    (Engine.schedule t.engine ~delay:Uid_cache.freshness_window
       (fun () ->
         if not (Uid_cache.updated_since t.uid_cache dst_uid asked_at) then
           Uid_cache.expire t.uid_cache dst_uid))

let send t (eth : Eth.t) =
  if Uid.equal eth.Eth.dst Eth.broadcast_uid then begin
    match wrap t ~dst:Short_address.broadcast_hosts eth with
    | None ->
      t.st <- { t.st with dropped_no_address = t.st.dropped_no_address + 1 };
      false
    | Some p ->
      t.st <-
        { t.st with
          client_sent = t.st.client_sent + 1;
          broadcast_data_sent = t.st.broadcast_data_sent + 1 };
      t.transmit p;
      true
  end
  else begin
    let addr, freshness = Uid_cache.lookup_for_send t.uid_cache eth.Eth.dst ~now:(now t) in
    (match freshness with
    | `Stale -> refresh_stale_entry t eth.Eth.dst addr
    | `Fresh -> ());
    let is_broadcast = Short_address.is_broadcast addr in
    let would_be =
      Packet.header_bytes + Eth.size eth + Packet.trailer_bytes
    in
    if is_broadcast && would_be > Packet.max_broadcast_wire_size then begin
      (* "the packet is discarded and an ARP request is sent in its
         place" *)
      send_arp_request t ~to_addr:Short_address.broadcast_hosts ~target:eth.Eth.dst;
      false
    end
    else begin
      (* The controller's pipelined cipher: encrypt when a key is shared
         with this destination and the packet travels point to point. *)
      let eth, enc_info =
        match Hashtbl.find_opt t.peer_keys (Uid.to_int eth.Eth.dst) with
        | Some key when not is_broadcast ->
          ( Eth.make ~dst:eth.Eth.dst ~src:eth.Eth.src
              ~ethertype:eth.Eth.ethertype
              ~payload:(Crypto.encrypt key eth.Eth.payload),
            Some (Crypto.header key) )
        | _ -> (eth, None)
      in
      match wrap ?enc_info t ~dst:addr eth with
      | None ->
        t.st <- { t.st with dropped_no_address = t.st.dropped_no_address + 1 };
        false
      | Some p ->
        t.st <-
          { t.st with
            client_sent = t.st.client_sent + 1;
            encrypted_sent =
              (t.st.encrypted_sent + if enc_info <> None then 1 else 0);
            broadcast_data_sent =
              (t.st.broadcast_data_sent + if is_broadcast then 1 else 0) };
        t.transmit p;
        true
    end
  end

let on_packet t (p : Packet.t) =
  match Packet.eth_of_client p with
  | exception (Wire.Malformed _ | Wire.Truncated) -> ()
  | raw_eth ->
    let decrypted =
      if not (Packet.is_encrypted p) then Some raw_eth
      else
        match Crypto.key_id_of_header p.Packet.enc_info with
        | None -> None
        | Some id -> (
          match Hashtbl.find_opt t.keys id with
          | None -> None (* a key we do not hold *)
          | Some key ->
            t.st <- { t.st with encrypted_received = t.st.encrypted_received + 1 };
            Some
              (Eth.make ~dst:raw_eth.Eth.dst ~src:raw_eth.Eth.src
                 ~ethertype:raw_eth.Eth.ethertype
                 ~payload:(Crypto.decrypt key raw_eth.Eth.payload)))
    in
    match decrypted with
    | None ->
      t.st <- { t.st with undecryptable_dropped = t.st.undecryptable_dropped + 1 }
    | Some eth ->
    (* Learn from every arrival, whoever it was for. *)
    if not (Uid.equal eth.Eth.src t.uid) then
      Uid_cache.learn t.uid_cache ~uid:eth.Eth.src ~address:p.Packet.src
        ~now:(now t);
    let for_me = Uid.equal eth.Eth.dst t.uid in
    let eth_broadcast = Uid.equal eth.Eth.dst Eth.broadcast_uid in
    if Uid.equal eth.Eth.src t.uid then () (* our own broadcast echoed *)
    else if (not for_me) && not eth_broadcast then
      (* Misaddressed (e.g. stale short address after renumbering): the
         receiving host checks the UID and discards. *)
      t.st <- { t.st with misaddressed_dropped = t.st.misaddressed_dropped + 1 }
    else begin
      (* "If the packet was sent to the broadcast short address but
         addressed to our UID, the sender has lost our short address." *)
      if for_me && Short_address.is_broadcast p.Packet.dst then
        send_arp_reply t ~to_addr:p.Packet.src ~to_uid:eth.Eth.src;
      match Arp.of_eth eth with
      | Some (Arp.Request { target }) ->
        if Uid.equal target t.uid then
          send_arp_reply t ~to_addr:p.Packet.src ~to_uid:eth.Eth.src
      | Some Arp.Reply | Some Arp.Announce ->
        () (* learning already happened above *)
      | None ->
        t.st <- { t.st with client_received = t.st.client_received + 1 };
        (match t.client_rx with Some f -> f eth | None -> ())
    end

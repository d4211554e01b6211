(* Tests for UIDs, short addresses, wire codecs, CRC, packets, FIFOs and
   channels. *)

open Autonet_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Uid *)

let test_uid_roundtrip () =
  let u = Uid.of_int 0x0000_2a01 in
  check_int "roundtrip" 0x2a01 (Uid.to_int u);
  check_string "pp" "00:00:00:00:2a:01" (Uid.to_string u)

let test_uid_bounds () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Uid.of_int: -1 is not a 48-bit value") (fun () ->
      ignore (Uid.of_int (-1)));
  ignore (Uid.of_int ((1 lsl 48) - 1))

let test_uid_order () =
  check_bool "less" true (Uid.compare (Uid.of_int 1) (Uid.of_int 2) < 0);
  check_bool "min" true (Uid.equal (Uid.min (Uid.of_int 5) (Uid.of_int 3)) (Uid.of_int 3))

(* ------------------------------------------------------------------ *)
(* Short addresses *)

let sa = Short_address.of_int

let test_address_classes () =
  let open Short_address in
  let cases =
    [ (0x0000, To_local_switch);
      (0x0001, One_hop 1);
      (0x000F, One_hop 15);
      (0x0010, Assigned (1, 0));
      (0x0017, Assigned (1, 7));
      (0x1234, Assigned (0x123, 4));
      (0xFFEF, Assigned (0xFFE, 15));
      (0xFFF0, Reserved);
      (0xFFFB, Reserved);
      (0xFFFC, Loopback);
      (0xFFFD, Broadcast_all);
      (0xFFFE, Broadcast_switches);
      (0xFFFF, Broadcast_hosts) ]
  in
  List.iter
    (fun (v, expected) ->
      let got = classify (sa v) in
      if got <> expected then
        Alcotest.failf "classify 0x%04X: got %s" v
          (Format.asprintf "%a" pp_cls got))
    cases

let test_address_classes_exhaustive () =
  (* Every 16-bit value classifies without exception and the classes
     partition the space per the paper's table. *)
  let counts = Hashtbl.create 8 in
  for v = 0 to 0xFFFF do
    let cls = Short_address.classify (sa v) in
    let key =
      match cls with
      | Short_address.To_local_switch -> "local"
      | One_hop _ -> "onehop"
      | Assigned _ -> "assigned"
      | Reserved -> "reserved"
      | Loopback -> "loopback"
      | Broadcast_all | Broadcast_switches | Broadcast_hosts -> "broadcast"
    in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check_int "local" 1 (get "local");
  check_int "onehop" 15 (get "onehop");
  check_int "assigned" (0xFFEF - 0x0010 + 1) (get "assigned");
  check_int "reserved" 12 (get "reserved");
  check_int "loopback" 1 (get "loopback");
  check_int "broadcast" 3 (get "broadcast")

let test_address_assignment_split () =
  let a = Short_address.assigned ~switch_number:0x123 ~port:4 in
  check_int "value" 0x1234 (Short_address.to_int a);
  (match Short_address.split a with
  | Some (s, p) ->
    check_int "switch" 0x123 s;
    check_int "port" 4 p
  | None -> Alcotest.fail "split failed");
  check_bool "special addresses do not split" true
    (Short_address.split Short_address.broadcast_all = None);
  check_bool "one-hop does not split" true
    (Short_address.split (Short_address.one_hop ~port:3) = None)

let test_address_assignment_bounds () =
  Alcotest.check_raises "switch 0"
    (Invalid_argument "Short_address.assigned: switch number 0") (fun () ->
      ignore (Short_address.assigned ~switch_number:0 ~port:1));
  Alcotest.check_raises "switch too big"
    (Invalid_argument "Short_address.assigned: switch number 4095") (fun () ->
      ignore (Short_address.assigned ~switch_number:0xFFF ~port:0));
  ignore (Short_address.assigned ~switch_number:0xFFE ~port:15)

let test_address_broadcast_predicate () =
  check_bool "fffd" true (Short_address.is_broadcast Short_address.broadcast_all);
  check_bool "ffff" true (Short_address.is_broadcast Short_address.broadcast_hosts);
  check_bool "fffc" false (Short_address.is_broadcast Short_address.loopback);
  check_bool "assigned" false (Short_address.is_broadcast (sa 0x0123))

(* ------------------------------------------------------------------ *)
(* Link commands *)

let test_command_flow_control_class () =
  let open Command in
  List.iter
    (fun c -> check_bool "fc" true (is_flow_control c))
    [ Start; Stop; Host; Idhy ];
  List.iter
    (fun c -> check_bool "not fc" false (is_flow_control c))
    [ Sync; Begin; End; Panic ]

let test_command_slot_equality () =
  let open Command in
  check_bool "data eq" true (equal_slot (Data 5) (Data 5));
  check_bool "data neq" false (equal_slot (Data 5) (Data 6));
  check_bool "cmd eq" true (equal_slot (Command Start) (Command Start));
  check_bool "mixed" false (equal_slot (Data 0) (Command Sync))

let test_command_constants () =
  check_int "fc period" 256 Command.flow_control_period;
  check_int "slot ns" 80 Command.slot_ns;
  (* 2 km at 64.1 slots/km is the paper's W = 128.2. *)
  Alcotest.(check (float 0.001)) "W formula" 128.2 (Command.slots_per_km *. 2.0)

(* ------------------------------------------------------------------ *)
(* Wire *)

let test_wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xAB;
  Wire.Writer.u16 w 0x1234;
  Wire.Writer.u32 w 0xDEADBEEF;
  Wire.Writer.u48 w 0x0123_4567_89AB;
  Wire.Writer.u64 w 0x0102030405060708L;
  Wire.Writer.lstring w "hello";
  Wire.Writer.list w (fun x -> Wire.Writer.u16 w x) [ 1; 2; 3 ];
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  check_int "u8" 0xAB (Wire.Reader.u8 r);
  check_int "u16" 0x1234 (Wire.Reader.u16 r);
  check_int "u32" 0xDEADBEEF (Wire.Reader.u32 r);
  check_int "u48" 0x0123_4567_89AB (Wire.Reader.u48 r);
  Alcotest.(check int64) "u64" 0x0102030405060708L (Wire.Reader.u64 r);
  check_string "lstring" "hello" (Wire.Reader.lstring r);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (Wire.Reader.list r (fun r -> Wire.Reader.u16 r));
  Wire.Reader.expect_end r

let test_wire_truncated () =
  let r = Wire.Reader.of_string "\x01" in
  Alcotest.check_raises "short" Wire.Truncated (fun () ->
      ignore (Wire.Reader.u16 r))

let test_wire_trailing () =
  let r = Wire.Reader.of_string "\x01\x02" in
  ignore (Wire.Reader.u8 r);
  Alcotest.check_raises "trailing" (Wire.Malformed "1 trailing bytes")
    (fun () -> Wire.Reader.expect_end r)

let test_wire_skip_prefix () =
  let r = Wire.Reader.of_string "\x01\x02\x03" in
  ignore (Wire.Reader.u8 r);
  check_bool "longer than the input" false
    (Wire.Reader.skip_prefix r "\x02\x03\x04");
  check_bool "differs" false (Wire.Reader.skip_prefix r "\x02\x04");
  check_int "nothing consumed" 2 (Wire.Reader.remaining r);
  check_bool "matches" true (Wire.Reader.skip_prefix r "\x02");
  check_int "consumed" 3 (Wire.Reader.u8 r);
  Wire.Reader.expect_end r;
  (* Word-wise: lengths around one word and a complete report's, read
     from an unaligned position, with a mismatch in the first word, the
     last full word and the byte tail. *)
  let rng = Autonet_sim.Rng.create ~seed:5L in
  let at = 3 and report = 12_297 in
  let input =
    String.init (at + report + 5) (fun _ ->
        Char.chr (Autonet_sim.Rng.int rng 256))
  in
  let flip s i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
  in
  let skip what prefix ~hit =
    let r = Wire.Reader.of_string input in
    ignore (Wire.Reader.take r at);
    let before = Wire.Reader.remaining r in
    check_bool what hit (Wire.Reader.skip_prefix r prefix);
    check_int (what ^ ": position")
      (if hit then before - String.length prefix else before)
      (Wire.Reader.remaining r)
  in
  List.iter
    (fun n ->
      let prefix = String.sub input at n in
      skip (Printf.sprintf "%d bytes" n) prefix ~hit:true;
      if n > 0 then
        skip (Printf.sprintf "%d bytes, last differs" n) (flip prefix (n - 1))
          ~hit:false)
    [ 0; 7; 8; 9; report ];
  let whole = String.sub input at report in
  let last_word = (report / 8 * 8) - 1 in
  List.iter
    (fun (what, i) -> skip what (flip whole i) ~hit:false)
    [ ("first word differs", 0); ("last full word differs", last_word);
      ("tail differs", report - 1) ];
  skip "longer than what remains"
    (String.sub input at (String.length input - at) ^ "\x00")
    ~hit:false

let wire_qcheck =
  QCheck.Test.make ~name:"wire u16/u32 roundtrip" ~count:500
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (a, b) ->
      let w = Wire.Writer.create () in
      Wire.Writer.u16 w a;
      Wire.Writer.u32 w ((b lsl 16) lor a);
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.u16 r = a && Wire.Reader.u32 r = (b lsl 16) lor a)

(* Every width at 0, its maximum and random values, in random order,
   through a writer that starts too small and must grow. *)
let wire_widths_qcheck =
  let max_of = [| 0xFF; 0xFFFF; 0xFFFF_FFFF; 0xFFFF_FFFF_FFFF |] in
  QCheck.Test.make
    ~name:"wire: every width round trips at 0, its maximum and random values"
    ~count:500
    QCheck.(list (triple (int_bound 4) (int_bound 2) int64))
    (fun fields ->
      (* Width 4 is u64, the others index [max_of]; the selector picks 0,
         the maximum or the random value masked to the width. *)
      let value (width, sel, raw) =
        if width = 4 then match sel with 0 -> 0L | 1 -> -1L | _ -> raw
        else
          Int64.of_int
            (match sel with
            | 0 -> 0
            | 1 -> max_of.(width)
            | _ -> Int64.to_int raw land max_of.(width))
      in
      let w = Wire.Writer.create ~initial_size:1 () in
      List.iter
        (fun ((width, _, _) as f) ->
          let v = value f in
          match width with
          | 0 -> Wire.Writer.u8 w (Int64.to_int v)
          | 1 -> Wire.Writer.u16 w (Int64.to_int v)
          | 2 -> Wire.Writer.u32 w (Int64.to_int v)
          | 3 -> Wire.Writer.u48 w (Int64.to_int v)
          | _ -> Wire.Writer.u64 w v)
        fields;
      let size = [| 1; 2; 4; 6; 8 |] in
      let s = Wire.Writer.contents w in
      let r = Wire.Reader.of_string s in
      String.length s = List.fold_left (fun n (k, _, _) -> n + size.(k)) 0 fields
      && Wire.Writer.length w = String.length s
      && List.for_all
           (fun ((width, _, _) as f) ->
             let v = value f in
             match width with
             | 0 -> Wire.Reader.u8 r = Int64.to_int v
             | 1 -> Wire.Reader.u16 r = Int64.to_int v
             | 2 -> Wire.Reader.u32 r = Int64.to_int v
             | 3 -> Wire.Reader.u48 r = Int64.to_int v
             | _ -> Int64.equal (Wire.Reader.u64 r) v)
           fields
      && Wire.Reader.remaining r = 0)

(* Every reader, on every input one byte or more too short for it, raises
   [Truncated] and consumes nothing.  The input starts one byte into the
   string, so a reader that checked from offset 0 would be caught. *)
let test_wire_truncated_consumes_nothing () =
  let module R = Wire.Reader in
  let readers =
    [ ("u8", "\x01", fun r -> ignore (R.u8 r));
      ("u16", "\x01\x02", fun r -> ignore (R.u16 r));
      ("u32", "\x01\x02\x03\x04", fun r -> ignore (R.u32 r));
      ("u48", "\x01\x02\x03\x04\x05\x06", fun r -> ignore (R.u48 r));
      ("u64", "\x01\x02\x03\x04\x05\x06\x07\x08", fun r -> ignore (R.u64 r));
      ("take 3", "abc", fun r -> ignore (R.take r 3));
      ("lstring", "\x00\x03abc", fun r -> ignore (R.lstring r));
      ( "list of u16",
        "\x00\x02\x00\x01\x00\x02",
        fun r -> ignore (R.list r (fun r -> R.u16 r)) ) ]
  in
  List.iter
    (fun (name, whole, read) ->
      let r = R.of_string ("\xAA" ^ whole) in
      ignore (R.u8 r);
      read r;
      check_int (name ^ ": whole input consumed") 0 (R.remaining r);
      for n = 0 to String.length whole - 1 do
        let r = R.of_string ("\xAA" ^ String.sub whole 0 n) in
        ignore (R.u8 r);
        Alcotest.check_raises
          (Printf.sprintf "%s on %d bytes" name n)
          Wire.Truncated (fun () -> read r);
        check_int (Printf.sprintf "%s on %d bytes: nothing consumed" name n) n
          (R.remaining r)
      done)
    readers

(* The encodings of one message per constructor, and per SRP request and
   response, as the byte-at-a-time codec wrote them before the codec
   moved to whole fields: the wire format must not move.  Each must also
   decode to a message that encodes to the same bytes. *)
module Messages = Autonet_autopilot.Messages
module Port_state = Autonet_autopilot.Port_state
open struct
  open Autonet_core

  let uid = Uid.of_int

  let golden_report =
    let d1 =
      Topology_report.switch_desc ~uid:(uid 0x11) ~proposed_number:1
        ~max_ports:4
        [ (1, Topology_report.Switch_link { peer = uid 0x22; peer_port = 2 });
          (3, Topology_report.Host_port) ]
    in
    let d2 =
      Topology_report.switch_desc ~uid:(uid 0x22) ~proposed_number:0xFFFF
        ~max_ports:4
        [ (2, Topology_report.Switch_link { peer = uid 0x11; peer_port = 1 }) ]
    in
    Topology_report.merge
      (Topology_report.singleton ~max_ports:4 d1)
      (Topology_report.singleton ~max_ports:4 d2)

  let golden_messages =
    let e = Epoch.of_int64 0x0102_0304_0506_0708L in
    let top = Epoch.of_int64 Int64.max_int in
  [ ( Messages.Tree_position
        { epoch = e; seq = 0xFFFF_FFFF;
          position =
            { Spanning_tree.Position.root = uid 0x0A0B_0C0D_0E0F;
              level = 0xFFFF; parent = uid 0xFFFF_FFFF_FFFF; parent_port = 12 } },
      "000102030405060708ffffffff0a0b0c0d0e0fffffffffffffffff0c" );
    ( Messages.Tree_ack { epoch = top; seq = 0; now_my_parent = true },
      "017fffffffffffffff0000000001" );
    ( Messages.Stable_report { epoch = e; seq = 9; report = golden_report },
      "0201020304050607080000000904000200000000001100010200000000002202000100000000000022ffff0002000000000011010000" );
    ( Messages.Unstable_notice { epoch = Epoch.zero; seq = 0x8000_0001 },
      "0c000000000000000080000001" );
    ( Messages.Report_ack { epoch = e; seq = 0x0102_0304 },
      "03010203040506070801020304" );
    ( Messages.Complete { epoch = top; seq = 11; report = golden_report },
      "047fffffffffffffff0000000b04000200000000001100010200000000002202000100000000000022ffff0002000000000011010000" );
    ( Messages.Complete_ack { epoch = e; seq = 11 },
      "0501020304050607080000000b" );
    ( Messages.Conn_test
        { token = 0xCAFE_F00D; src_uid = uid 0x8000_0000_0001; src_port = 4;
          sw_version = 2 },
      "06cafef00d8000000000010400000002" );
    ( Messages.Conn_reply
        { token = 7; orig_uid = uid 3; orig_port = 4;
          responder_uid = uid 0xFFFF_FFFF_FFFF; responder_port = 15;
          sw_version = 0xFFFF_FFFF },
      "070000000700000000000304ffffffffffff0fffffffff" );
    ( Messages.Host_query { token = 1; host_uid = uid 0x42 },
      "0800000001000000000042" );
    ( Messages.Host_addr { token = 0xFFFF_FFFF; address = Short_address.of_int 0xFFFC },
      "09fffffffffffc" );
    ( Messages.Version_offer { version = 0x0001_0000 },
      "0d00010000" );
    ( Messages.Srp_request
        { route = [ 1; 2; 3 ]; reply_route = [ 15 ]; request = Messages.Get_state },
      "0a000301020300010f00" );
    ( Messages.Srp_request
        { route = []; reply_route = [];
          request = Messages.Get_log { max_entries = 0xFFFF } },
      "0a0000000001ffff" );
    ( Messages.Srp_request
        { route = [ 255 ]; reply_route = [ 0 ]; request = Messages.Get_topology },
      "0a0001ff00010002" );
    ( Messages.Srp_response
        { route = [ 9 ];
          response =
            Messages.State
              { uid = uid 1; epoch = e; configured = true;
                port_states =
                  [ (1, Port_state.Switch_good); (2, Port_state.Dead);
                    (3, Port_state.Host) ] } },
      "0b000109000000000000010102030405060708010003010502000302" );
    ( Messages.Srp_response
        { route = [];
          response =
            Messages.Log_entries [ (0, ""); (0x7FFF_FFFF_FFFF, "epoch 3") ] },
      "0b00000100020000000000000000000000007fffffffffff000765706f63682033" );
    ( Messages.Srp_response
        { route = [ 2; 2 ]; response = Messages.Topology golden_report },
      "0b000202020204000200000000001100010200000000002202000100000000000022ffff0002000000000011010000" );
    ( Messages.Srp_response { route = []; response = Messages.No_data },
      "0b000003" ) ]
end

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_wire_golden_messages () =
  List.iter
    (fun (msg, golden) ->
      let name = Format.asprintf "%a" Messages.pp msg in
      check_string name golden (hex (Messages.encode msg));
      check_string (name ^ ", decoded and encoded again") golden
        (hex (Messages.encode (Messages.decode (unhex golden)))))
    golden_messages

(* ------------------------------------------------------------------ *)
(* CRC32 *)

let test_crc_known_values () =
  (* Standard test vector: CRC32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.string "")

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.string s in
  let c = Crc32.update Crc32.init s ~pos:0 ~len:10 in
  let c = Crc32.update c s ~pos:10 ~len:(String.length s - 10) in
  Alcotest.(check int32) "incremental" whole (Crc32.finalize c)

let test_crc_detects_flip () =
  let s = Bytes.of_string "some packet body" in
  let before = Crc32.string (Bytes.to_string s) in
  Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 0x01));
  check_bool "differs" true (before <> Crc32.string (Bytes.to_string s))

(* ------------------------------------------------------------------ *)
(* Packets *)

let sample_eth ?(payload = "ping") () =
  Eth.make ~dst:(Uid.of_int 0x42) ~src:(Uid.of_int 0x43) ~ethertype:0x0800
    ~payload

let test_packet_roundtrip () =
  let p =
    Packet.client ~dst:(sa 0x0123) ~src:(sa 0x0456) (sample_eth ())
  in
  let encoded = Packet.encode p in
  check_int "wire size" (Packet.wire_size p) (String.length encoded);
  let decoded, crc_ok = Packet.decode encoded in
  check_bool "crc" true crc_ok;
  check_bool "equal" true (Packet.equal p decoded);
  let eth = Packet.eth_of_client decoded in
  check_bool "eth" true (Eth.equal (sample_eth ()) eth)

let test_packet_crc_detects_corruption () =
  let p = Packet.client ~dst:(sa 0x0123) ~src:(sa 0x0456) (sample_eth ()) in
  let encoded = Bytes.of_string (Packet.encode p) in
  Bytes.set encoded 10 '\xFF';
  let _, crc_ok = Packet.decode (Bytes.to_string encoded) in
  check_bool "crc bad" false crc_ok

let test_packet_header_size () =
  (* The paper's header: 2 + 2 + 2 + 26 = 32 bytes; trailer 8 bytes. *)
  check_int "header" 32 Packet.header_bytes;
  check_int "trailer" 8 Packet.trailer_bytes;
  let p = Packet.make ~dst:(sa 1) ~src:(sa 2) ~typ:Packet.Client ~body:"" () in
  check_int "empty body wire size" 40 (Packet.wire_size p)

let test_packet_max_broadcast () =
  (* Maximal Ethernet payload + headers is about 1550 bytes. *)
  check_int "max broadcast" (32 + 14 + 1500 + 8) Packet.max_broadcast_wire_size

let test_packet_typ_roundtrip () =
  List.iter
    (fun t ->
      check_bool "typ" true
        (Packet.equal_typ t (Packet.typ_of_int (Packet.typ_to_int t))))
    [ Packet.Client; Packet.Reconfiguration; Packet.Srp; Packet.Connectivity;
      Packet.Other 9 ]

let packet_qcheck =
  QCheck.Test.make ~name:"packet encode/decode roundtrip" ~count:200
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (string_of_size Gen.(int_bound 200)))
    (fun (d, s, body) ->
      let p =
        Packet.make ~dst:(sa d) ~src:(sa s) ~typ:Packet.Srp ~body ()
      in
      let decoded, ok = Packet.decode (Packet.encode p) in
      ok && Packet.equal p decoded)

(* ------------------------------------------------------------------ *)
(* Fifo *)

let test_fifo_order () =
  let f = Fifo.create ~capacity:8 ~zero:(Command.Command Command.Sync) () in
  Fifo.push f (Command.Data 1);
  Fifo.push f (Command.Data 2);
  Fifo.push f (Command.Command Command.End);
  check_int "occupancy" 3 (Fifo.occupancy f);
  check_bool "pop 1" true (Fifo.pop f = Some (Command.Data 1));
  check_bool "pop 2" true (Fifo.pop f = Some (Command.Data 2));
  check_bool "pop end" true (Fifo.pop f = Some (Command.Command Command.End));
  check_bool "empty" true (Fifo.pop f = None)

let test_fifo_threshold () =
  (* Capacity 8, f = 0.5: stop asserted when occupancy exceeds 4. *)
  let f = Fifo.create ~capacity:8 ~zero:(Command.Command Command.Sync) () in
  for i = 1 to 4 do
    Fifo.push f (Command.Data i)
  done;
  check_bool "at threshold" false (Fifo.above_threshold f);
  Fifo.push f (Command.Data 5);
  check_bool "above" true (Fifo.above_threshold f);
  ignore (Fifo.pop f);
  check_bool "below again" false (Fifo.above_threshold f)

let test_fifo_threshold_fraction () =
  (* f = 0.25: stop asserted above 75% occupancy. *)
  let f = Fifo.create ~threshold_free_fraction:0.25 ~capacity:100 ~zero:(Command.Command Command.Sync) () in
  for _ = 1 to 75 do
    Fifo.push f (Command.Data 0)
  done;
  check_bool "at 75" false (Fifo.above_threshold f);
  Fifo.push f (Command.Data 0);
  check_bool "above 75" true (Fifo.above_threshold f)

let test_fifo_overflow () =
  let f = Fifo.create ~capacity:2 ~zero:(Command.Command Command.Sync) () in
  Fifo.push f (Command.Data 1);
  Fifo.push f (Command.Data 2);
  check_bool "no overflow yet" false (Fifo.overflowed f);
  Fifo.push f (Command.Data 3);
  check_bool "overflowed" true (Fifo.overflowed f);
  check_int "dropped" 2 (Fifo.occupancy f);
  Fifo.clear_overflow f;
  check_bool "cleared" false (Fifo.overflowed f)

let test_fifo_high_water () =
  let f = Fifo.create ~capacity:16 ~zero:(Command.Command Command.Sync) () in
  for _ = 1 to 10 do
    Fifo.push f (Command.Data 0)
  done;
  for _ = 1 to 10 do
    ignore (Fifo.pop f)
  done;
  check_int "high water" 10 (Fifo.max_occupancy f);
  Fifo.reset_stats f;
  check_int "reset" 0 (Fifo.max_occupancy f)

let test_fifo_wraparound () =
  let f = Fifo.create ~capacity:4 ~zero:(Command.Command Command.Sync) () in
  for round = 0 to 9 do
    Fifo.push f (Command.Data round);
    check_bool "fifo order across wrap" true (Fifo.pop f = Some (Command.Data round))
  done

let test_fifo_peek_at () =
  let f = Fifo.create ~capacity:8 ~zero:(Command.Command Command.Sync) () in
  Fifo.push f (Command.Data 0xAA);
  Fifo.push f (Command.Data 0xBB);
  check_bool "peek 0" true (Fifo.peek_at f 0 = Some (Command.Data 0xAA));
  check_bool "peek 1" true (Fifo.peek_at f 1 = Some (Command.Data 0xBB));
  check_bool "peek 2" true (Fifo.peek_at f 2 = None);
  check_int "not consumed" 2 (Fifo.occupancy f)

(* ------------------------------------------------------------------ *)
(* Channel *)

let test_channel_delay () =
  let ch = Channel.create ~idle:(Command.Command Command.Sync) ~delay_slots:3 in
  let out1 = Channel.tick ch ~input:(Command.Data 1) in
  let out2 = Channel.tick ch ~input:(Command.Data 2) in
  let out3 = Channel.tick ch ~input:(Command.Data 3) in
  let out4 = Channel.tick ch ~input:(Command.Command Command.Sync) in
  check_bool "sync first" true (out1 = Command.Command Command.Sync);
  check_bool "sync second" true (out2 = Command.Command Command.Sync);
  check_bool "sync third" true (out3 = Command.Command Command.Sync);
  check_bool "data emerges" true (out4 = Command.Data 1)

let test_channel_length_formula () =
  (* Paper: W = 64.1 L slots; 2 km -> 129 slots (ceiling). *)
  check_int "2km" 129 (Channel.delay_of_length_km 2.0);
  check_int "100m" 7 (Channel.delay_of_length_km 0.1);
  check_int "zero length still 1 slot" 1 (Channel.delay_of_length_km 0.0)

let test_channel_fill () =
  let ch = Channel.create ~idle:(Command.Command Command.Sync) ~delay_slots:2 in
  Channel.fill ch (Command.Data 7);
  check_bool "filled" true
    (Channel.tick ch ~input:(Command.Command Command.Sync) = Command.Data 7)

let () =
  Alcotest.run "net"
    [ ( "uid",
        [ Alcotest.test_case "roundtrip" `Quick test_uid_roundtrip;
          Alcotest.test_case "bounds" `Quick test_uid_bounds;
          Alcotest.test_case "order" `Quick test_uid_order ] );
      ( "short_address",
        [ Alcotest.test_case "classes" `Quick test_address_classes;
          Alcotest.test_case "exhaustive partition" `Quick
            test_address_classes_exhaustive;
          Alcotest.test_case "assignment split" `Quick test_address_assignment_split;
          Alcotest.test_case "assignment bounds" `Quick test_address_assignment_bounds;
          Alcotest.test_case "broadcast predicate" `Quick
            test_address_broadcast_predicate ] );
      ( "command",
        [ Alcotest.test_case "flow control class" `Quick
            test_command_flow_control_class;
          Alcotest.test_case "slot equality" `Quick test_command_slot_equality;
          Alcotest.test_case "constants" `Quick test_command_constants ] );
      ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "trailing" `Quick test_wire_trailing;
          QCheck_alcotest.to_alcotest wire_qcheck;
          Alcotest.test_case "skip prefix" `Quick test_wire_skip_prefix;
          QCheck_alcotest.to_alcotest wire_widths_qcheck;
          Alcotest.test_case "truncated consumes nothing" `Quick
            test_wire_truncated_consumes_nothing;
          Alcotest.test_case "golden messages" `Quick test_wire_golden_messages ] );
      ( "crc32",
        [ Alcotest.test_case "known values" `Quick test_crc_known_values;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
          Alcotest.test_case "detects bit flip" `Quick test_crc_detects_flip ] );
      ( "packet",
        [ Alcotest.test_case "roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "crc detects corruption" `Quick
            test_packet_crc_detects_corruption;
          Alcotest.test_case "header sizes" `Quick test_packet_header_size;
          Alcotest.test_case "max broadcast size" `Quick test_packet_max_broadcast;
          Alcotest.test_case "typ roundtrip" `Quick test_packet_typ_roundtrip;
          QCheck_alcotest.to_alcotest packet_qcheck ] );
      ( "fifo",
        [ Alcotest.test_case "order" `Quick test_fifo_order;
          Alcotest.test_case "threshold" `Quick test_fifo_threshold;
          Alcotest.test_case "threshold fraction" `Quick test_fifo_threshold_fraction;
          Alcotest.test_case "overflow" `Quick test_fifo_overflow;
          Alcotest.test_case "high water" `Quick test_fifo_high_water;
          Alcotest.test_case "wraparound" `Quick test_fifo_wraparound;
          Alcotest.test_case "peek_at" `Quick test_fifo_peek_at ] );
      ( "channel",
        [ Alcotest.test_case "delay" `Quick test_channel_delay;
          Alcotest.test_case "length formula" `Quick test_channel_length_formula;
          Alcotest.test_case "fill" `Quick test_channel_fill ] ) ]

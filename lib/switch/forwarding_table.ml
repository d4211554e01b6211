open Autonet_net
module Tables = Autonet_core.Tables

type entry = { vector : Port_vector.t; broadcast : bool }

let discard_entry = { vector = Port_vector.empty; broadcast = true }

(* The table is held in the synthesis format itself, so a load is a
   [Tables.copy]: the page pointers, with the pages shared copy-on-write
   (the one-hop rows and host-port edits then copy just the pages they
   write).  The holder does not know its switch index: the spec keeps the
   index of the last one loaded. *)
type t = { ports : int; mutable spec : Tables.spec; mutable gen : int }

let create ~max_ports =
  if max_ports < 1 || max_ports > 15 then
    invalid_arg "Forwarding_table.create: max_ports must be in 1..15";
  { ports = max_ports; spec = Tables.empty ~switch:0; gen = 0 }

let max_ports t = t.ports

let generation t = t.gen

let spec t = t.spec

(* The index packs [in_port] into 4 bits: an out-of-range port would read
   or write another port's row. *)
let check_port t fn in_port =
  if in_port < 0 || in_port > t.ports then
    invalid_arg ("Forwarding_table." ^ fn ^ ": in_port out of range")

let of_tables (e : Tables.entry) =
  { vector = Port_vector.of_list e.Tables.ports; broadcast = e.Tables.broadcast }

let lookup t ~in_port ~dst =
  check_port t "lookup" in_port;
  of_tables (Tables.lookup t.spec ~in_port ~dst)

let has_row t ~in_port =
  check_port t "has_row" in_port;
  Tables.has_row t.spec ~in_port

let rows_of t ~in_port =
  check_port t "rows_of" in_port;
  List.map (fun (a, e) -> (a, of_tables e)) (Tables.row t.spec ~in_port)

let replace t spec =
  t.spec <- spec;
  t.gen <- t.gen + 1

let clear t = replace t (Tables.empty ~switch:(Tables.switch t.spec))

(* The constant one-hop rows, wherever no computed entry holds the index. *)
let install_one_hop t =
  let to_cp = { Tables.broadcast = false; ports = [ 0 ] } in
  for k = 1 to t.ports do
    let dst = Short_address.one_hop ~port:k in
    for in_port = 0 to t.ports do
      if (Tables.lookup t.spec ~in_port ~dst).Tables.ports = [] then
        Tables.set t.spec ~in_port ~dst
          (if in_port = 0 then { Tables.broadcast = false; ports = [ k ] }
           else to_cp)
    done
  done

let load_constant t =
  clear t;
  install_one_hop t

let load_spec t spec =
  replace t (Tables.copy ~switch:(Tables.switch spec) spec);
  install_one_hop t

let entry_count t = Tables.entry_count t.spec

module Tables = Autonet_core.Tables

(* The table is held in the synthesis format itself, and [Tables] renders
   every entry of it: a load is a [Tables.copy] of a computed spec (the
   page pointers, with the pages shared copy-on-write) or a fresh
   [Tables.constant], and host-port edits then copy just the pages they
   write.  The holder does not know its switch index: the spec keeps the
   index of the last one loaded. *)
type t = { ports : int; mutable spec : Tables.spec }

let create ~max_ports =
  if max_ports < 1 || max_ports > 15 then
    invalid_arg "Forwarding_table.create: max_ports must be in 1..15";
  { ports = max_ports; spec = Tables.empty ~switch:0 }

let max_ports t = t.ports

let spec t = t.spec

(* The index packs [in_port] into 4 bits: an out-of-range port would read
   or write another port's row. *)
let check_port t fn in_port =
  if in_port < 0 || in_port > t.ports then
    invalid_arg ("Forwarding_table." ^ fn ^ ": in_port out of range")

let lookup t ~in_port ~dst =
  check_port t "lookup" in_port;
  Tables.lookup t.spec ~in_port ~dst

let has_row t ~in_port =
  check_port t "has_row" in_port;
  Tables.has_row t.spec ~in_port

let rows_of t ~in_port =
  check_port t "rows_of" in_port;
  Tables.row t.spec ~in_port

let clear t = t.spec <- Tables.empty ~switch:(Tables.switch t.spec)

let load_constant t =
  t.spec <- Tables.constant ~switch:(Tables.switch t.spec) ~max_ports:t.ports

let load_spec t spec = t.spec <- Tables.copy ~switch:(Tables.switch spec) spec

let entry_count t = Tables.entry_count t.spec

open Autonet_net

type t = {
  ports : int;
  source : int array; (* per output port: feeding input, or -1 *)
}

let create ~max_ports =
  if max_ports < 0 || max_ports > Port_vector.max_port then
    invalid_arg "Crossbar.create";
  { ports = max_ports; source = Array.make (max_ports + 1) (-1) }

let max_ports t = t.ports

let check t p =
  if p < 0 || p > t.ports then
    invalid_arg (Printf.sprintf "Crossbar: port %d out of range" p)

let connect t ~in_port ~out_ports =
  check t in_port;
  let outs = Port_vector.to_list out_ports in
  List.iter
    (fun o ->
      check t o;
      if t.source.(o) >= 0 then
        invalid_arg (Printf.sprintf "Crossbar.connect: output %d busy" o))
    outs;
  List.iter (fun o -> t.source.(o) <- in_port) outs

let release_output t ~out_port =
  check t out_port;
  t.source.(out_port) <- -1

let release_input t ~in_port =
  check t in_port;
  for o = 0 to t.ports do
    if t.source.(o) = in_port then t.source.(o) <- -1
  done

let source_of t ~out_port =
  check t out_port;
  if t.source.(out_port) < 0 then None else Some t.source.(out_port)

let outputs_of t ~in_port =
  check t in_port;
  let v = ref Port_vector.empty in
  for o = 0 to t.ports do
    if t.source.(o) = in_port then v := Port_vector.add o !v
  done;
  !v

let busy_outputs t =
  let v = ref Port_vector.empty in
  for o = 0 to t.ports do
    if t.source.(o) >= 0 then v := Port_vector.add o !v
  done;
  !v

let free_outputs t = Port_vector.diff (Port_vector.full ~n_ports:t.ports) (busy_outputs t)

let reset t = Array.fill t.source 0 (Array.length t.source) (-1)

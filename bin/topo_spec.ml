(* The argument converters and checks both command-line tools share.  A
   malformed argument is a usage error (exit 124) naming what is
   accepted, rather than an exception out of the command. *)

(* A --topo spec is checked by building it once. *)
let conv =
  let parse spec =
    match Autonet_topo.Builders.of_spec spec ~seed:1L ~hosts:0 with
    | _ -> Ok spec
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_string)

let at_least k =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= k -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%S: expected an integer >= %d" s k))
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_int)

(* Switch indices are checked against the built topology before anything
   runs; a failed check is a usage error for [Cmdliner.Term.ret]. *)
let check_switch (topo : Autonet_topo.Builders.t) ~what s k =
  let n = Autonet_core.Graph.switch_count topo.graph in
  if s < n then k ()
  else
    `Error
      ( true,
        Printf.sprintf "%s %d: expected a switch index in 0..%d" what s (n - 1)
      )

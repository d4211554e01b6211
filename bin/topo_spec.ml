(* The --topo converter of both command-line tools.  A spec is checked by
   building it once, so a malformed one is a usage error rather than an
   exception out of the command. *)

let conv =
  let parse spec =
    match Autonet_topo.Builders.of_spec spec ~seed:1L ~hosts:0 with
    | _ -> Ok spec
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Cmdliner.Arg.conv (parse, Format.pp_print_string)

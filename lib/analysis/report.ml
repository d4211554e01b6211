type t = {
  title : string;
  columns : string list;
  mutable rows : string list list; (* newest first *)
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg
      (Printf.sprintf "Report.add_row: %d cells, %d columns" (List.length row)
         (List.length t.columns));
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w c -> max w (String.length c)) acc row)
      (List.map (fun _ -> 0) t.columns)
      all
  in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let line row = String.concat "  " (List.map2 pad widths row) in
  let rule =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let b = Buffer.create 256 in
  Buffer.add_string b ("== " ^ t.title ^ " ==\n");
  Buffer.add_string b (line t.columns);
  Buffer.add_char b '\n';
  Buffer.add_string b rule;
  Buffer.add_char b '\n';
  List.iter
    (fun row ->
      Buffer.add_string b (line row);
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let print t =
  print_string (render t);
  print_newline ()

let cell_float ?(decimals = 2) v = Printf.sprintf "%.*f" decimals v

let cell_time_ms v = Printf.sprintf "%.1f ms" (Autonet_sim.Time.to_float_ms v)

let cell_time_us v = Printf.sprintf "%.1f us" (Autonet_sim.Time.to_float_us v)

let cell_mbps v = Printf.sprintf "%.1f Mb/s" v

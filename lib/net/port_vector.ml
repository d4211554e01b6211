type t = int

let max_port = 15

let empty = 0
let is_empty t = t = 0

let full ~n_ports =
  if n_ports < 0 || n_ports > max_port then invalid_arg "Port_vector.full";
  (1 lsl (n_ports + 1)) - 1

let check p =
  if p < 0 || p > max_port then
    invalid_arg (Printf.sprintf "Port_vector: port %d out of range" p)

let singleton p =
  check p;
  1 lsl p

let add p t =
  check p;
  t lor (1 lsl p)

let of_list l = List.fold_left (fun acc p -> add p acc) empty l

let of_int i =
  if i < 0 || i > 0xFFFF then invalid_arg "Port_vector.of_int";
  i

let to_list t =
  let rec go p acc =
    if p < 0 then acc
    else go (p - 1) (if t land (1 lsl p) <> 0 then p :: acc else acc)
  in
  go max_port []

let mem p t =
  check p;
  t land (1 lsl p) <> 0

let remove p t =
  check p;
  t land lnot (1 lsl p)

let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let subset a b = a land b = a

let count t =
  let rec go t acc = if t = 0 then acc else go (t lsr 1) (acc + (t land 1)) in
  go t 0

let lowest t =
  if t = 0 then None
  else
    let rec go p = if t land (1 lsl p) <> 0 then p else go (p + 1) in
    Some (go 0)

let equal = Int.equal

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (to_list t)))

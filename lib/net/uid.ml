type t = int

let max_uid = (1 lsl 48) - 1

let of_int n =
  if n < 0 || n > max_uid then
    invalid_arg (Printf.sprintf "Uid.of_int: %d is not a 48-bit value" n);
  n

let to_int t = t

let compare = Int.compare
let equal = Int.equal
let min = Stdlib.min

let to_string t =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xff)
    ((t lsr 32) land 0xff)
    ((t lsr 24) land 0xff)
    ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff)
    (t land 0xff)

let pp ppf t = Format.pp_print_string ppf (to_string t)

let arbitrary rng =
  Int64.to_int (Int64.logand (Autonet_sim.Rng.next64 rng) 0xFFFF_FFFF_FFFFL)

module Map = Map.Make (Int)
module Set = Set.Make (Int)

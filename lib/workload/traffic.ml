open Autonet_core
module Rng = Autonet_sim.Rng

type pattern = Permutation | Uniform | Hotspot | Neighbor

let choose_pairs ~rng ~hosts pattern =
  let hosts = Array.of_list hosts in
  let n = Array.length hosts in
  if n < 2 then invalid_arg "Traffic.choose_pairs: need at least two hosts";
  match pattern with
  | Permutation ->
    let perm = Array.copy hosts in
    Rng.shuffle rng perm;
    List.init (n / 2) (fun i -> (perm.(2 * i), perm.((2 * i) + 1)))
  | Uniform ->
    Array.to_list
      (Array.map
         (fun src ->
           let rec pick () =
             let d = hosts.(Rng.int rng n) in
             if d = src then pick () else d
           in
           (src, pick ()))
         hosts)
  | Hotspot ->
    let victim = hosts.(Rng.int rng n) in
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun src -> if src = victim then None else Some (src, victim))
            (Array.to_seq hosts)))
  | Neighbor ->
    List.init n (fun i -> (hosts.(i), hosts.((i + 1) mod n)))

let saturating ~dst ~bytes ~slot:_ = Some (dst, bytes)

let fixed_count ~dst ~bytes ~count () =
  let remaining = ref count in
  fun ~slot:_ ->
    if !remaining > 0 then begin
      decr remaining;
      Some (dst, bytes)
    end
    else None

let poisson ~rng ~dst ~bytes ~load () =
  if load <= 0.0 || load > 1.0 then invalid_arg "Traffic.poisson: load in (0,1]";
  let mean_gap = float_of_int bytes /. load in
  let next_start = ref 0.0 in
  fun ~slot ->
    if float_of_int slot >= !next_start then begin
      next_start :=
        float_of_int slot +. Rng.exponential rng ~mean:mean_gap;
      Some (dst, bytes)
    end
    else None

(* Reference the Graph module so the interface's types stay nominal even if
   unused in this implementation file. *)
let _ = Graph.max_ports

open Autonet_net
module Time = Autonet_sim.Time

type network = Autonet | Ethernet

type entry = {
  address : Short_address.t;
  network : network;
  updated_at : Time.t;
}

type t = (int, entry) Hashtbl.t (* keyed by Uid.to_int *)

let create () = Hashtbl.create 64

let freshness_window = Time.s 2

let learn ?(network = Autonet) t ~uid ~address ~now =
  Hashtbl.replace t (Uid.to_int uid) { address; network; updated_at = now }

let find t uid = Hashtbl.find_opt t (Uid.to_int uid)

let lookup_for_send t uid ~now =
  match find t uid with
  | Some e ->
    let fresh = Time.sub now e.updated_at <= freshness_window in
    (e.address, if fresh then `Fresh else `Stale)
  | None ->
    (* "A new cache entry is created giving the short address for this UID
       as FFFF" — created stale-but-broadcast: there is no one to ARP yet,
       so report it fresh; learning happens from the reply. *)
    Hashtbl.replace t (Uid.to_int uid)
      { address = Short_address.broadcast_hosts;
        network = Autonet;
        updated_at = now };
    (Short_address.broadcast_hosts, `Fresh)

let updated_since t uid at =
  match find t uid with Some e -> e.updated_at > at | None -> false

let expire t uid =
  match find t uid with
  | None -> ()
  | Some e ->
    Hashtbl.replace t (Uid.to_int uid)
      { e with address = Short_address.broadcast_hosts }

let network_of t uid = Option.map (fun e -> e.network) (find t uid)

let size t = Hashtbl.length t

let entries t =
  Hashtbl.fold (fun k e acc -> (Uid.of_int k, e) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> Uid.compare a b)

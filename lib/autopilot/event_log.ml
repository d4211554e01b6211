module Time = Autonet_sim.Time
module Epoch = Autonet_core.Epoch

type entry = { local_time : int; epoch : Epoch.t; event : Event.t }

let message e = Event.to_string e.event

type t = {
  capacity : int;
  clock_skew : Time.t;
  ring : entry option array;
  mutable next : int;
  mutable total : int;
}

let create ?(capacity = 512) ~clock_skew () =
  if capacity < 1 then invalid_arg "Event_log.create: capacity";
  { capacity; clock_skew; ring = Array.make capacity None; next = 0; total = 0 }

let capacity t = t.capacity

let skew t = t.clock_skew

let log t ~now ~epoch event =
  t.ring.(t.next) <-
    Some { local_time = Time.add now t.clock_skew; epoch; event };
  t.next <- (t.next + 1) mod t.capacity;
  t.total <- t.total + 1

let logf t ~now ~epoch fmt =
  Format.kasprintf (fun m -> log t ~now ~epoch (Event.Generic m)) fmt

let entries t =
  (* [t.next] is the oldest slot once the ring has wrapped; walking from
     the newest slot down and prepending yields oldest-first order. *)
  let acc = ref [] in
  for i = t.capacity - 1 downto 0 do
    let idx = (t.next + i) mod t.capacity in
    match t.ring.(idx) with None -> () | Some e -> acc := e :: !acc
  done;
  !acc

let length t = Stdlib.min t.total t.capacity

let total_logged t = t.total

let merge logs =
  let all =
    List.concat_map
      (fun (name, t) ->
        List.map
          (fun e -> (Time.sub e.local_time t.clock_skew, name, message e))
          (entries t))
      logs
  in
  List.stable_sort (fun (a, _, _) (b, _, _) -> Time.compare a b) all

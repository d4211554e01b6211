open Autonet_net

type grant = { in_port : int; out_ports : Port_vector.t; broadcast : bool }

type req = {
  r_in_port : int;
  r_vector : Port_vector.t;
  r_broadcast : bool;
  mutable r_captured : Port_vector.t; (* broadcast requests accumulate here *)
}

type t = { mutable queue : req list (* oldest first *) }

let create () = { queue = [] }

let has_request t ~in_port =
  List.exists (fun r -> r.r_in_port = in_port) t.queue

let request t ~in_port ~vector ~broadcast =
  if has_request t ~in_port then false
  else begin
    t.queue <-
      t.queue
      @ [ { r_in_port = in_port;
            r_vector = vector;
            r_broadcast = broadcast;
            r_captured = Port_vector.empty } ];
    true
  end

(* One sweep of the free vector over the queue, oldest first.  A request
   that cannot complete stays queued; under [strict] it also ends the
   sweep, so no younger request jumps it. *)
let sweep ~strict ?(max_grants = max_int) t ~free =
  (* Ports already reserved by queued broadcast requests stay captured
     between rounds: hide them from the sweep. *)
  let reserved =
    List.fold_left
      (fun acc r -> Port_vector.union acc r.r_captured)
      Port_vector.empty t.queue
  in
  let free = ref (Port_vector.diff free reserved) in
  let grants = ref [] in
  (* The ports [r] is granted this round, if it completes. *)
  let serve r =
    if not r.r_broadcast then
      match Port_vector.lowest (Port_vector.inter r.r_vector !free) with
      | Some p ->
        free := Port_vector.remove p !free;
        Some (Port_vector.singleton p)
      | None -> None
    else begin
      (* Capture every free port still needed, and hide captured ports
         from younger requests. *)
      let needed = Port_vector.diff r.r_vector r.r_captured in
      let captured_now = Port_vector.inter needed !free in
      free := Port_vector.diff !free captured_now;
      r.r_captured <- Port_vector.union r.r_captured captured_now;
      if Port_vector.subset r.r_vector r.r_captured then Some r.r_vector
      else None
    end
  in
  let rec go n_granted = function
    | [] -> []
    | r :: rest as queue ->
      if n_granted >= max_grants then queue
      else
        match serve r with
        | Some out_ports ->
          grants :=
            { in_port = r.r_in_port; out_ports; broadcast = r.r_broadcast }
            :: !grants;
          go (n_granted + 1) rest
        | None when strict -> queue (* head blocked: everyone behind waits *)
        | None -> r :: go n_granted rest
  in
  t.queue <- go 0 t.queue;
  List.rev !grants

let round ?max_grants t ~free = sweep ~strict:false ?max_grants t ~free

let round_fcfs ?max_grants t ~free = sweep ~strict:true ?max_grants t ~free

let cancel t ~in_port =
  t.queue <- List.filter (fun r -> r.r_in_port <> in_port) t.queue

let pending t = List.length t.queue

let clear t = t.queue <- []

(* A [Queued] handle is counted in its engine's live count; a [Running]
   one's action is under way. *)
type state = Queued | Running | Dead

type handle = { mutable state : state; action : unit -> unit; counter : int ref }
(* [counter] is shared with the owning engine so that [cancel] can keep the
   live-event count accurate without a back-pointer to the engine. *)

type t = {
  mutable clock : Time.t;
  queue : handle Pqueue.t;
  mutable executed : int;
  mutable max_queue : int;
  live_count : int ref;
}

let create () =
  { clock = Time.zero;
    queue = Pqueue.create ();
    executed = 0;
    max_queue = 0;
    live_count = ref 0 }

let now t = t.clock

let enqueue t ~time h =
  h.state <- Queued;
  Pqueue.add t.queue ~time h;
  incr t.live_count;
  let len = Pqueue.length t.queue in
  if len > t.max_queue then t.max_queue <- len

let schedule_at t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time
         t.clock);
  let h = { state = Queued; action = f; counter = t.live_count } in
  enqueue t ~time h;
  h

(* Whether now + [delay] stays within [max_int].  The clock is never
   negative, so [max_int - clock] cannot overflow, where the sum would
   wrap to a time in the past. *)
let fits t delay = delay <= max_int - t.clock

let after t what delay =
  if not (fits t delay) then
    invalid_arg
      (Printf.sprintf "Engine.%s: now %d + %d overflows the clock" what t.clock
         delay);
  Time.add t.clock delay

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(after t "schedule" delay) f

(* Once [f] returns, the action queues its own handle again, where a
   self-rescheduling loop scheduled its successor, unless it was
   cancelled meanwhile or its next firing would overflow the clock;
   [fire] then marks it dead. *)
let every t ~period f =
  if period <= 0 then invalid_arg "Engine.every: non-positive period";
  let rec h =
    { state = Queued;
      action =
        (fun () ->
          f ();
          if h.state = Running && fits t period then
            enqueue t ~time:(Time.add t.clock period) h);
      counter = t.live_count }
  in
  enqueue t ~time:(after t "every" period) h;
  h

let cancel h =
  if h.state = Queued then decr h.counter;
  h.state <- Dead

let cancelled h = h.state = Dead

(* Cancelled entries are discarded lazily when they reach the head of the
   queue, which keeps [cancel] O(1). *)
let rec drop_dead_head t =
  if (not (Pqueue.is_empty t.queue)) && (Pqueue.top t.queue).state <> Queued
  then begin
    ignore (Pqueue.take t.queue);
    drop_dead_head t
  end

(* Fire the head of a queue whose head is live. *)
let fire t =
  t.clock <- Pqueue.min_time t.queue;
  let h = Pqueue.take t.queue in
  h.state <- Running;
  decr t.live_count;
  t.executed <- t.executed + 1;
  h.action ();
  if h.state = Running then h.state <- Dead

let step t =
  drop_dead_head t;
  if Pqueue.is_empty t.queue then false
  else begin
    fire t;
    true
  end

let run ?until ?max_events t =
  let budget = ref (Option.value max_events ~default:max_int) in
  match until with
  | None -> while !budget > 0 && step t do decr budget done
  | Some limit ->
    if limit < t.clock then
      invalid_arg
        (Printf.sprintf "Engine.run: until %d is before now %d" limit t.clock);
    while !budget > 0 do
      drop_dead_head t;
      if Pqueue.is_empty t.queue || Pqueue.min_time t.queue > limit then begin
        (* Idle time still passes: leaving the clock behind [limit] here
           would freeze simulated time on a dead network, and a caller
           polling a sim-time deadline (run_until_converged) would spin
           forever. *)
        t.clock <- limit;
        budget := 0
      end
      else begin
        fire t;
        decr budget
      end
    done

let pending t = !(t.live_count)

let queue_length t = Pqueue.length t.queue

let max_queue_length t = t.max_queue

let events_executed t = t.executed

let runs_opened t = Pqueue.runs_opened t.queue

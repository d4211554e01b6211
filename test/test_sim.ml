(* Tests for the discrete-event engine, PRNG, priority queue and tracing. *)

open Autonet_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "s" 1_000_000_000 (Time.s 1);
  check_int "of_float_s" 1_500_000_000 (Time.of_float_s 1.5);
  Alcotest.(check (float 1e-9)) "to_float_s" 0.25 (Time.to_float_s (Time.ms 250))

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ns" "999 ns" (s 999);
  Alcotest.(check string) "us" "1.500 us" (s 1500);
  Alcotest.(check string) "ms" "2.000 ms" (s (Time.ms 2));
  Alcotest.(check string) "s" "3.000 s" (s (Time.s 3))

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.add q ~time:30 ~seq:0 "c";
  Pqueue.add q ~time:10 ~seq:1 "a";
  Pqueue.add q ~time:20 ~seq:2 "b";
  Alcotest.(check string) "top" "a" (Pqueue.top q);
  check_int "min time" 10 (Pqueue.min_time q);
  check_int "top leaves it queued" 3 (Pqueue.length q);
  (* Bind in sequence: list literals evaluate right to left. *)
  let x = Pqueue.take q in
  let y = Pqueue.take q in
  let z = Pqueue.take q in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ x; y; z ];
  Alcotest.check_raises "take on empty"
    (Invalid_argument "Pqueue.take: empty queue") (fun () ->
      ignore (Pqueue.take q))

let test_pqueue_tie_break () =
  let q = Pqueue.create () in
  for i = 0 to 9 do
    Pqueue.add q ~time:5 ~seq:i i
  done;
  let order = List.init 10 (fun _ -> Pqueue.take q) in
  Alcotest.(check (list int)) "fifo within an instant" (List.init 10 Fun.id) order

let test_pqueue_stress () =
  let rng = Rng.create ~seed:42L in
  let q = Pqueue.create () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Pqueue.add q ~time:(Rng.int rng 1000) ~seq:i i
  done;
  check_int "length" n (Pqueue.length q);
  let last = ref (-1) in
  let ok = ref true in
  for _ = 1 to n do
    let t = Pqueue.min_time q in
    ignore (Pqueue.take q);
    if t < !last then ok := false;
    last := t
  done;
  check_bool "monotone" true !ok;
  check_bool "drained" true (Pqueue.is_empty q)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~delay:20 (note "b"));
  ignore (Engine.schedule e ~delay:10 (note "a"));
  ignore (Engine.schedule e ~delay:30 (note "c"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 30 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    ignore (Engine.schedule e ~delay:5 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:10 (fun () -> fired := true) in
  check_int "pending" 1 (Engine.pending e);
  Engine.cancel h;
  check_int "pending after cancel" 0 (Engine.pending e);
  Engine.run e;
  check_bool "not fired" false !fired;
  check_bool "cancelled" true (Engine.cancelled h)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:10 tick)
  in
  ignore (Engine.schedule e ~delay:10 tick);
  Engine.run e ~until:100;
  check_int "ticks within horizon" 10 !count;
  check_int "clock parked at horizon" 100 (Engine.now e);
  (* Resuming runs the events beyond the old horizon. *)
  Engine.run e ~until:150;
  check_int "more ticks" 15 !count

(* An empty queue must not freeze the clock: [run ~until] means that
   much simulated time passes whether or not anything is scheduled.
   (Regression: a dead network froze [now], so sim-time deadlines polled
   around [run] — Network.run_until_converged — spun forever.) *)
let test_engine_until_empty_queue () =
  let e = Engine.create () in
  Engine.run e ~until:40;
  check_int "idle time passes" 40 (Engine.now e);
  let fired = ref false in
  ignore (Engine.schedule e ~delay:5 (fun () -> fired := true));
  Engine.run e ~until:100;
  check_bool "event after idle gap fires" true !fired;
  check_int "clock at horizon, queue drained" 100 (Engine.now e);
  (* A shorter horizon never rolls the clock back: it is refused. *)
  Alcotest.check_raises "shorter horizon refused"
    (Invalid_argument "Engine.run: until 50 is before now 100") (fun () ->
      Engine.run e ~until:50);
  check_int "clock monotone" 100 (Engine.now e)

(* With an event queued past it, a horizon behind [now] used to set the
   clock back to it, and an event scheduled next would fire before one
   that had already fired. *)
let test_engine_until_in_past () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.now e) :: !log in
  ignore (Engine.schedule_at e ~time:100 (note "a"));
  ignore (Engine.schedule_at e ~time:300 (note "c"));
  Engine.run e ~until:150;
  Alcotest.check_raises "past horizon refused"
    (Invalid_argument "Engine.run: until 50 is before now 150") (fun () ->
      Engine.run e ~until:50);
  check_int "clock kept" 150 (Engine.now e);
  ignore (Engine.schedule e ~delay:10 (note "b"));
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "fired in time order" [ ("a", 100); ("b", 160); ("c", 300) ]
    (List.rev !log)

(* Cancelling the head, an interior event and an already-fired one:
   [pending] counts the live events and [queue_length] also the cancelled
   ones not yet dropped at the head. *)
let test_engine_cancel_positions () =
  let e = Engine.create () in
  let log = ref [] in
  let h =
    Array.init 5 (fun i ->
        Engine.schedule e ~delay:(10 * (i + 1)) (fun () -> log := i :: !log))
  in
  let counts what p q =
    check_int (what ^ ": pending") p (Engine.pending e);
    check_int (what ^ ": queue length") q (Engine.queue_length e)
  in
  counts "scheduled" 5 5;
  Engine.cancel h.(0);
  Engine.cancel h.(2);
  counts "head and interior cancelled" 3 5;
  Engine.cancel h.(2);
  counts "cancelling twice is a no-op" 3 5;
  check_bool "step fires" true (Engine.step e);
  counts "dead head dropped, one fired" 2 3;
  Engine.cancel h.(1);
  counts "cancelling a fired event is a no-op" 2 3;
  Engine.run e;
  counts "drained" 0 0;
  Alcotest.(check (list int)) "live events fired" [ 1; 3; 4 ] (List.rev !log);
  check_bool "no event left" false (Engine.step e)

(* Same-instant events fire in scheduling order even when a horizon
   splits the run between them and more are scheduled in between. *)
let test_engine_fifo_across_until () =
  let e = Engine.create () in
  let log = ref [] in
  let note i () = log := i :: !log in
  for i = 0 to 2 do
    ignore (Engine.schedule_at e ~time:50 (note i))
  done;
  Engine.run e ~until:50 ~max_events:2;
  check_int "stopped by the budget at the instant" 50 (Engine.now e);
  for i = 3 to 4 do
    ignore (Engine.schedule_at e ~time:50 (note i))
  done;
  ignore (Engine.schedule_at e ~time:60 (note 6));
  Engine.run e ~until:50;
  ignore (Engine.schedule_at e ~time:50 (note 5));
  Engine.run e ~until:60;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4; 5; 6 ] (List.rev !log)

(* The queue keeps its working size between rounds, so a scheduled and
   fired event costs its handle alone.  Counted in this domain's minor
   words, which repeat exactly run to run. *)
let test_engine_words_per_event () =
  let e = Engine.create () in
  let rng = Rng.create ~seed:3L in
  let n = 2000 in
  let delays =
    Array.init n (fun i -> if i mod 4 = 0 then 0 else Rng.int rng 50_000)
  in
  let noop () = () in
  let round () =
    Array.iter (fun delay -> ignore (Engine.schedule e ~delay noop)) delays;
    Engine.run e
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  let words = (Gc.minor_words () -. w0) /. float_of_int n and bar = 8. in
  Printf.printf "engine: %.2f minor words per scheduled and fired event (bar %.0f)\n"
    words bar;
  if words > bar then
    Alcotest.failf
      "engine: %.2f minor words per scheduled and fired event (bar %.0f)" words
      bar

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:5 (fun () ->
         times := Engine.now e :: !times;
         ignore
           (Engine.schedule e ~delay:7 (fun () ->
                times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list int)) "nested times" [ 5; 12 ] (List.rev !times)

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:10 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1) (fun () -> ())))

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Engine.schedule e ~delay:1 tick)
  in
  ignore (Engine.schedule e ~delay:1 tick);
  Engine.run e ~max_events:25;
  check_int "bounded" 25 !count

(* Engine.every against the self-rescheduling loop it replaced: each
   start of a loop gets its own running flag, and its event schedules
   the successor after the action, unless stopped meanwhile. *)
let every_timer e ~period f =
  let h = Engine.every e ~period f in
  fun () -> Engine.cancel h

let loop_timer e ~period f =
  let running = ref true and timer = ref None in
  let rec schedule () =
    timer :=
      Some
        (Engine.schedule e ~delay:period (fun () ->
             if !running then begin
               f ();
               if !running then schedule ()
             end))
  in
  schedule ();
  fun () ->
    running := false;
    Option.iter Engine.cancel !timer

type op = Stop of int | Start of int | Shot of int

type program = {
  periods : int array;
  at : (int * op) list;  (** one-shot events: at this instant, do op *)
  inside : (int * int * op) list;
      (** timer i's k-th firing does op (after noting the firing) *)
}

let pp_op = function
  | Stop i -> Printf.sprintf "stop %d" i
  | Start i -> Printf.sprintf "start %d" i
  | Shot d -> Printf.sprintf "shot +%d" d

let pp_program p =
  Printf.sprintf "periods [%s]; at [%s]; inside [%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int p.periods)))
    (String.concat "; "
       (List.map (fun (t, op) -> Printf.sprintf "%d: %s" t (pp_op op)) p.at))
    (String.concat "; "
       (List.map
          (fun (i, k, op) -> Printf.sprintf "t%d#%d: %s" i k (pp_op op))
          p.inside))

(* Few timers with short periods and instants on a small grid, so ticks,
   one-shots, stops and restarts keep landing on the same instants. *)
let gen_program =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  array_repeat n (int_range 1 5) >>= fun periods ->
  let op =
    frequency
      [ (3, map (fun i -> Stop i) (int_bound (n - 1)));
        (3, map (fun i -> Start i) (int_bound (n - 1)));
        (2, map (fun d -> Shot d) (int_bound 6)) ]
  in
  list_size (int_bound 10) (pair (int_bound 30) op) >>= fun at ->
  list_size (int_bound 10) (triple (int_bound (n - 1)) (int_range 1 6) op)
  >>= fun inside -> return { periods; at; inside }

(* Every firing, one-shot and the end of the run, each with the clock
   and the four counters as the action (or the caller) read them. *)
let run_program timer p =
  let e = Engine.create () in
  let stops = Array.map (fun _ -> None) p.periods in
  let fired = Array.map (fun _ -> 0) p.periods in
  let log = ref [] in
  let note tag =
    log :=
      ( tag,
        Engine.now e,
        Engine.events_executed e,
        Engine.pending e,
        Engine.queue_length e,
        Engine.max_queue_length e )
      :: !log
  in
  let rec perform = function
    | Stop i ->
      Option.iter (fun stop -> stop ()) stops.(i);
      stops.(i) <- None
    | Start i ->
      if Option.is_none stops.(i) then
        stops.(i) <- Some (timer e ~period:p.periods.(i) (tick i))
    | Shot d -> ignore (Engine.schedule e ~delay:d (fun () -> note "shot"))
  and tick i () =
    fired.(i) <- fired.(i) + 1;
    note (Printf.sprintf "t%d" i);
    List.iter
      (fun (j, k, op) -> if j = i && k = fired.(i) then perform op)
      p.inside
  in
  Array.iteri (fun i _ -> perform (Start i)) p.periods;
  List.iter
    (fun (time, op) ->
      ignore
        (Engine.schedule_at e ~time (fun () ->
             note "at";
             perform op)))
    p.at;
  Engine.run e ~until:40;
  note "end";
  List.rev !log

let every_equals_loop =
  QCheck.Test.make ~name:"every fires as the self-rescheduling loop"
    ~count:500
    (QCheck.make ~print:pp_program gen_program)
    (fun p -> run_program every_timer p = run_program loop_timer p)

(* The handle and its closure are made once, so a firing allocates
   nothing.  Counted in this domain's minor words over many firings. *)
let test_engine_every_allocates_nothing () =
  let e = Engine.create () in
  let n = ref 0 in
  ignore (Engine.every e ~period:3 (fun () -> incr n));
  ignore (Engine.every e ~period:5 (fun () -> incr n));
  Engine.run e ~until:1_000;
  let fired = !n and w0 = Gc.minor_words () in
  Engine.run e ~until:100_000;
  let words = (Gc.minor_words () -. w0) /. float_of_int (!n - fired)
  and bar = 0.01 in
  Printf.printf "engine: %.4f minor words per periodic firing (bar %.2f)\n"
    words bar;
  if words > bar then
    Alcotest.failf "engine: %.4f minor words per periodic firing (bar %.2f)"
      words bar

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_rng_bounds () =
  let g = Rng.create ~seed:1L in
  for _ = 1 to 10_000 do
    let v = Rng.int g 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  for _ = 1 to 10_000 do
    let v = Rng.float g 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "float out of bounds"
  done

let test_rng_split_independent () =
  let g = Rng.create ~seed:99L in
  let c1 = Rng.split g in
  let c2 = Rng.split g in
  let xs = List.init 10 (fun _ -> Rng.next64 c1) in
  let ys = List.init 10 (fun _ -> Rng.next64 c2) in
  check_bool "children differ" true (xs <> ys)

let test_rng_uniformity () =
  (* Coarse sanity: bucket counts of 60k draws over 6 buckets stay within
     5 sigma of the mean. *)
  let g = Rng.create ~seed:3L in
  let buckets = Array.make 6 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let b = Rng.int g 6 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let mean = float_of_int n /. 6.0 in
  let sigma = sqrt (mean *. (1.0 -. (1.0 /. 6.0))) in
  Array.iter
    (fun c ->
      if abs_float (float_of_int c -. mean) > 5.0 *. sigma then
        Alcotest.failf "bucket count %d too far from mean %.0f" c mean)
    buckets

let test_rng_shuffle_permutes () =
  let g = Rng.create ~seed:5L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_rng_exponential_mean () =
  let g = Rng.create ~seed:11L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential g ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 2.8 || mean > 3.2 then Alcotest.failf "mean %.3f out of range" mean

let () =
  Alcotest.run "sim"
    [ ( "time",
        [ Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "pretty printing" `Quick test_time_pp ] );
      ( "pqueue",
        [ Alcotest.test_case "ordering" `Quick test_pqueue_order;
          Alcotest.test_case "tie break" `Quick test_pqueue_tie_break;
          Alcotest.test_case "stress" `Quick test_pqueue_stress ] );
      ( "engine",
        [ Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "run until, empty queue" `Quick
            test_engine_until_empty_queue;
          Alcotest.test_case "run until in the past" `Quick
            test_engine_until_in_past;
          Alcotest.test_case "cancel head, interior, fired" `Quick
            test_engine_cancel_positions;
          Alcotest.test_case "same-instant fifo across until" `Quick
            test_engine_fifo_across_until;
          Alcotest.test_case "words per event" `Quick
            test_engine_words_per_event;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "negative delay" `Quick test_engine_past_rejected;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          QCheck_alcotest.to_alcotest every_equals_loop;
          Alcotest.test_case "every allocates nothing" `Quick
            test_engine_every_allocates_nothing ] );
      ( "rng",
        [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_mean ] ) ]

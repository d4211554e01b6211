(* Unit tests for the domain pool's batch dispatcher: index-coverage
   edge cases of [parallel_for] (n = 0, n < domains), a property over
   random sizes and domain counts for the one batching rule, failure
   propagation out of a worker mid-round (and pool usability
   afterwards), and the split between the deterministic metrics snapshot
   and the scheduling snapshot. *)

module Pool = Autonet_parallel.Pool
module Metrics = Autonet_telemetry.Metrics

let with_pool d f =
  let p = Pool.create ~domains:d () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* The indices of [0, n) that [parallel_for] did not run exactly once.
   Each index is owned by exactly one batch, so the per-index cells are
   written race-free. *)
let miscounted pool n =
  let hits = Array.make (Stdlib.max 1 n) 0 in
  Pool.parallel_for pool ~n (fun i -> hits.(i) <- hits.(i) + 1);
  List.filter (fun i -> hits.(i) <> 1) (List.init n Fun.id)

let check_coverage ~what pool n =
  match miscounted pool n with
  | [] -> ()
  | i :: _ -> Alcotest.failf "%s: index %d did not run exactly once" what i

let test_empty_range () =
  with_pool 4 (fun pool ->
      let calls = ref 0 in
      Pool.parallel_for pool ~n:0 (fun _ -> incr calls);
      Alcotest.(check int) "n = 0 never calls the body" 0 !calls;
      Alcotest.(check int) "map of [||] is [||]" 0
        (Array.length (Pool.parallel_map_array pool (fun x -> x) [||])))

let test_fewer_items_than_domains () =
  with_pool 4 (fun pool ->
      List.iter
        (fun n -> check_coverage ~what:(Printf.sprintf "n=%d < domains" n) pool n)
        [ 1; 2; 3 ])

(* The one batching rule, over random sizes (most of which do not
   divide into 4 batches per domain) and 1-4 domains: [parallel_for]
   runs every index exactly once, [parallel_map_array] equals
   [Array.map], and the merged metrics snapshot of both calls renders as
   it does on one domain. *)
let batching_qcheck =
  QCheck.Test.make ~name:"one batching rule on random sizes" ~count:60
    QCheck.(pair (int_bound 300) (int_bound 3))
    (fun (n0, d0) ->
      (* Clamp anyway: some QCheck shrinkers step outside the bounds. *)
      let n = abs n0 mod 301 and d = 1 + (abs d0 mod 4) in
      let a = Array.init n (fun i -> (i * 7919) mod 1009) in
      let f x = (x * x) + 3 in
      let run d =
        with_pool d (fun pool ->
            Pool.set_metrics_enabled pool true;
            let missed = miscounted pool n in
            let mapped = Pool.parallel_map_array pool f a in
            (missed, mapped, Metrics.render (Pool.metrics_snapshot pool)))
      in
      let missed, mapped, metrics = run d in
      let _, _, metrics_1 = run 1 in
      if missed <> [] then
        QCheck.Test.fail_reportf "n=%d d=%d: index %d not run exactly once" n d
          (List.hd missed);
      if mapped <> Array.map f a then
        QCheck.Test.fail_reportf "n=%d d=%d: map differs from Array.map" n d;
      if metrics <> metrics_1 then
        QCheck.Test.fail_reportf
          "n=%d d=%d: metrics differ from 1 domain:\n%s\nvs\n%s" n d metrics
          metrics_1;
      true)

(* The batch layout varies with both the domain count and the length:
   one batch, fewer items than batches, and uneven batches. *)
let test_map_matches_serial () =
  let f x = (x * x) + 3 in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          List.iter
            (fun n ->
              let a = Array.init n (fun i -> (i * 7919) mod 1009) in
              Alcotest.(check (array int))
                (Printf.sprintf "n=%d at %d domains" n d)
                (Array.map f a)
                (Pool.parallel_map_array pool f a))
            [ 1; 2; 7; 231 ]))
    [ 1; 2; 4 ]

let test_worker_failure_propagates () =
  with_pool 4 (fun pool ->
      Alcotest.check_raises "exception escapes the round" (Failure "boom")
        (fun () ->
          Pool.parallel_for pool ~n:64 (fun i ->
              if i = 13 then failwith "boom"));
      (* The failed round must leave the pool fully usable. *)
      check_coverage ~what:"pool usable after a failed round" pool 32;
      Alcotest.check_raises "map failure escapes too" (Failure "mid")
        (fun () ->
          ignore
            (Pool.parallel_map_array pool
               (fun i -> if i = 40 then failwith "mid" else i)
               (Array.init 64 Fun.id)));
      Alcotest.check_raises "failure on the caller-seeded element 0"
        (Failure "first") (fun () ->
          ignore
            (Pool.parallel_map_array pool
               (fun i -> if i = 0 then failwith "first" else i)
               (Array.init 8 Fun.id)));
      let got = Pool.parallel_map_array pool (fun i -> i * 2) (Array.init 16 Fun.id) in
      Alcotest.(check (array int)) "map after failures"
        (Array.init 16 (fun i -> i * 2)) got)

(* The deterministic snapshot must render byte-identically for the same
   workload at every domain count; the scheduling snapshot is allowed to
   differ but its worker totals must be internally consistent. *)
let test_metrics_identity_and_sched () =
  let workload pool =
    Pool.parallel_for pool ~n:37 (fun _ -> ());
    ignore
      (Pool.parallel_map_array pool
         (fun x -> x + 1)
         (Array.init 23 Fun.id))
  in
  let rendered = ref None in
  List.iter
    (fun d ->
      with_pool d (fun pool ->
          Pool.set_metrics_enabled pool true;
          workload pool;
          let snap = Pool.metrics_snapshot pool in
          (match Metrics.find snap "pool.items" with
          | Some (Metrics.Counter n) ->
            Alcotest.(check int)
              (Printf.sprintf "pool.items at %d domains" d)
              60 n
          | _ -> Alcotest.fail "pool.items missing");
          (match Metrics.find snap "pool.worker_items" with
          | Some (Metrics.Counter n) ->
            Alcotest.(check int)
              (Printf.sprintf "worker items sum to items at %d domains" d)
              60 n
          | _ -> Alcotest.fail "pool.worker_items missing");
          let r = Metrics.render snap in
          (match !rendered with
          | None -> rendered := Some r
          | Some prev ->
            if prev <> r then
              Alcotest.failf
                "metrics snapshot differs at %d domains:\n%s\nvs\n%s" d r
                prev);
          let sched = Pool.sched_snapshot pool in
          match Metrics.find sched "pool.worker_batches" with
          | Some (Metrics.Counter b) ->
            Alcotest.(check bool)
              (Printf.sprintf "batches counted at %d domains" d)
              true (b >= 2)
          | _ -> Alcotest.fail "pool.worker_batches missing"))
    [ 1; 2; 3; 4 ]

let () =
  Alcotest.run "parallel"
    [ ( "parallel_for",
        [ Alcotest.test_case "n = 0" `Quick test_empty_range;
          Alcotest.test_case "n < domains" `Quick
            test_fewer_items_than_domains;
          QCheck_alcotest.to_alcotest batching_qcheck ] );
      ( "map",
        [ Alcotest.test_case "matches Array.map across domains x batching"
            `Quick test_map_matches_serial ] );
      ( "failure",
        [ Alcotest.test_case
            "worker exception propagates; pool stays usable" `Quick
            test_worker_failure_propagates ] );
      ( "metrics",
        [ Alcotest.test_case
            "deterministic snapshot identical at any domain count" `Quick
            test_metrics_identity_and_sched ] ) ]

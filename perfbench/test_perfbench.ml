(* Tests for the benchmark's own pure pieces: the percentile rule, the
   open-loop schedules, span self-time arithmetic and the metrics
   scrape reader. *)

open Perfbench

let float_eq = Alcotest.float 1e-12

let test_percentile_rule () =
  Alcotest.(check int) "p99 needs 1000" 1000 (Stats.min_samples 0.99);
  Alcotest.(check int) "p50 needs 20" 20 (Stats.min_samples 0.5);
  let xs n = Array.init n (fun i -> float_of_int (n - i)) in
  Alcotest.(check (option float_eq)) "999 samples: no p99" None (Stats.percentile (xs 999) 0.99);
  Alcotest.(check (option float_eq)) "1000 samples: p99 is rank 990" (Some 990.)
    (Stats.percentile (xs 1000) 0.99);
  Alcotest.(check int) "ten beyond" 10 (Stats.beyond ~n:1000 0.99);
  Alcotest.(check (option float_eq)) "19 samples: no median" None (Stats.percentile (xs 19) 0.5);
  Alcotest.(check (option float_eq)) "20 samples: nearest-rank median" (Some 10.)
    (Stats.percentile (xs 20) 0.5);
  Alcotest.check float_eq "plain median, even n" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.check_raises "p outside (0, 1)"
    (Invalid_argument "Stats.percentile: p must lie in (0, 1)") (fun () ->
      ignore (Stats.percentile (xs 10) 1.))

let test_schedule () =
  let due = Schedule.constant ~rate:100. ~duration:1. in
  Alcotest.(check int) "count" 100 (Array.length due);
  Alcotest.check float_eq "first due at 0" 0. due.(0);
  Alcotest.check float_eq "even spacing" 0.01 (due.(51) -. due.(50));
  Alcotest.check float_eq "last inside the window" 0.99 due.(99);
  Alcotest.(check (array float_eq)) "one event hour at 3600x is a second" [| 0.; 1.; 2.5 |]
    (Schedule.paced ~speedup:3600. [| 0.; 1.; 2.5 |]);
  let b = Schedule.batches ~tick:0.005 [| 0.; 0.001; 0.0049; 0.005; 0.02 |] in
  Alcotest.(check (array (triple float_eq int int))) "ticks group votes"
    [| (0., 0, 3); (0.005, 3, 1); (0.02, 4, 1) |] b

let test_self_time () =
  Alcotest.check float_eq "leaf" 2. (Spans.self_time ~start:1. ~stop:3. []);
  Alcotest.check float_eq "disjoint children" 4.
    (Spans.self_time ~start:0. ~stop:10. [ (1., 3.); (5., 9.) ]);
  Alcotest.check float_eq "overlapping children count once" 5.
    (Spans.self_time ~start:0. ~stop:10. [ (1., 4.); (2., 6.) ]);
  Alcotest.check float_eq "children clipped to the parent" 7.
    (Spans.self_time ~start:0. ~stop:10. [ (-5., 1.); (8., 20.) ]);
  Alcotest.check float_eq "never negative" 0.
    (Spans.self_time ~start:0. ~stop:1. [ (-1., 2.) ]);
  let r = Spans.recorder ~enabled:true in
  Spans.with_span r "outer" (fun () -> Spans.with_span r "inner" (fun () -> ignore (Unix.select [] [] [] 0.02)));
  let dur name =
    List.find (fun s -> s.Spans.name = name) (Spans.spans r) |> fun s -> s.Spans.stop -. s.Spans.start
  in
  let outer = dur "outer" and inner = dur "inner" in
  Alcotest.check (Alcotest.float 1e-9) "outer self = outer - inner" (outer -. inner)
    (Spans.self_times r "outer").(0);
  Alcotest.check (Alcotest.float 1e-9) "inner is a leaf" inner (Spans.self_times r "inner").(0);
  let off = Spans.recorder ~enabled:false in
  Alcotest.(check int) "disabled records nothing" 0
    (Spans.with_span off "x" (fun () -> List.length (Spans.spans off)))

let test_prom () =
  let before =
    Prom.parse
      "# TYPE dlosn_pde_solves_total counter\n\
       dlosn_pde_solves_total 3\n\
       dlosn_serve_request_ns_sum{label=\"predict\"} 1000\n\
       dlosn_serve_request_ns_count{label=\"predict\"} 4\n"
  in
  let after =
    Prom.parse
      "dlosn_pde_solves_total 10\n\
       dlosn_serve_request_ns_sum{label=\"predict\"} 4000\n\
       dlosn_serve_request_ns_count{label=\"predict\"} 10\n\
       dlosn_pool_imbalance 1.25\n"
  in
  Alcotest.check float_eq "counter delta" 7. (Prom.counter ~before ~after "pde.solves");
  Alcotest.check float_eq "mean of the phase only" 500.
    (Prom.hist_mean ~label:"predict" ~before ~after "serve.request_ns");
  Alcotest.check float_eq "no observations: 0" 0.
    (Prom.hist_mean ~before ~after "pde.solve_ns");
  Alcotest.(check (option float_eq)) "gauge" (Some 1.25) (Prom.gauge after "pool.imbalance")

let () =
  Alcotest.run "perfbench"
    [
      ( "pure",
        [
          Alcotest.test_case "percentile sample-count rule" `Quick test_percentile_rule;
          Alcotest.test_case "open-loop schedules" `Quick test_schedule;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "metrics scrape deltas" `Quick test_prom;
        ] );
    ]

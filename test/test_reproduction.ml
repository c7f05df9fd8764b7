(* Pins the reproduced paper results: the Table I (friendship hops) and
   Table II (shared interests) analogue accuracies of story s1 on the
   seed-7 medium Digg corpus, as EXPERIMENTS.md reports them.  The
   calls mirror the reproduction harness (same corpus, story, metric,
   parameter choices and RNG seeds), so any refactor of the solver,
   the fitter or the pipeline that shifts a reported number by more
   than rounding noise fails here rather than silently. *)

(* The whole pipeline is deterministic for a fixed seed; the tolerance
   only absorbs libm differences across platforms. *)
let tolerance = 1e-9

(* In-sample calibration as in the paper: tuned on the same t = 2..6
   it reports, six Nelder--Mead restarts. *)
let insample_config =
  { Dl.Fit.default_config with fit_times = [| 2.; 3.; 4.; 5.; 6. |]; starts = 6 }

let test_tables () =
  let corpus = Socialnet.Digg.build ~scale:Socialnet.Digg.medium ~seed:7 () in
  let ds = corpus.Socialnet.Digg.dataset in
  let s1 = Socialnet.Dataset.story ds corpus.Socialnet.Digg.rep_ids.(0) in
  let overall ?params metric =
    (Dl.Pipeline.run ?params ds ~story:s1 ~metric).Dl.Pipeline.table
      .Dl.Accuracy.overall_average
  in
  let auto seed config =
    Dl.Pipeline.Auto { rng = Numerics.Rng.create seed; config }
  in
  List.iter
    (fun (name, expected, actual) ->
      Alcotest.(check (float tolerance)) name expected (Lazy.force actual))
    [
      ( "Table I, published parameters",
        0.83864457464061604,
        lazy (overall Dl.Pipeline.hops) );
      ( "Table I, calibrated in-sample",
        0.8934376979169556,
        lazy (overall ~params:(auto 13 insample_config) Dl.Pipeline.hops) );
      ( "Table I, out-of-sample",
        0.82298849089617931,
        lazy
          (overall ~params:(auto 14 Dl.Fit.default_config) Dl.Pipeline.hops) );
      ( "Table II, published parameters",
        0.54050665770054274,
        lazy (overall Dl.Pipeline.interest) );
      ( "Table II, calibrated in-sample",
        0.81177401702572427,
        lazy (overall ~params:(auto 15 insample_config) Dl.Pipeline.interest) );
    ]

let suite =
  [ Alcotest.test_case "s1 Table I/II accuracies" `Slow test_tables ]

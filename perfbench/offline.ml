(* Workload [offline-forecast]: Batch.evaluate in out-of-sample mode
   over the top stories of a fixed-seed Digg.medium corpus, closed
   loop, alternating passes at a pool of 1 and a pool of nproc.

   Most of its time is PDE panel solves inside Nelder–Mead, so the
   numerics, core and parallel layers show here; HTTP, JSON, live and
   store are bypassed.  The workload seed is the calibration seed. *)

let corpus_seed = 7
let n_top = 16
let jobs_n = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Evaluated count, skipped count and mean accuracy (as bits) of a
   sequential pass, recorded per calibration seed on the reference
   build; an unrecorded seed is checked for determinism only. *)
let recorded =
  [
    (0, (14, 2, 4604139034598167456L));
    (1, (14, 2, 4604077595776452354L));
    (2, (14, 2, 4604134511340017141L));
    (3, (14, 2, 4604138997645188029L));
    (4, (14, 2, 4604121863585801961L));
    (5, (14, 2, 4604133998175037675L));
    (6, (14, 2, 4604206952287737022L));
    (7, (14, 2, 4604191256728434735L));
    (8, (14, 2, 4604117847530490898L));
    (9, (14, 2, 4604161123962343701L));
    (10, (14, 2, 4604149589298555854L));
    (11, (14, 2, 4604202516548197257L));
    (12, (14, 2, 4604190353227713583L));
    (13, (14, 2, 4604161949879038551L));
    (14, (14, 2, 4604070039089117574L));
    (15, (14, 2, 4604106719946523943L));
    (16, (14, 2, 4604136256653630081L));
    (17, (14, 2, 4604194350591052529L));
    (18, (14, 2, 4604090057070263221L));
    (19, (14, 2, 4604121923524501329L));
    (20, (14, 2, 4604089118613570687L))
  ]

let build_corpus () =
  let corpus = Socialnet.Digg.build ~scale:Socialnet.Digg.medium ~seed:corpus_seed () in
  let ds = corpus.Socialnet.Digg.dataset in
  (ds, Dl.Batch.top_stories ds ~n:n_top)

let bits = Int64.bits_of_float

let same_result (a : Dl.Batch.story_result) (b : Dl.Batch.story_result) =
  a.Dl.Batch.story_id = b.Dl.Batch.story_id
  && bits a.Dl.Batch.overall = bits b.Dl.Batch.overall
  && a.Dl.Batch.skipped = b.Dl.Batch.skipped
  && bits a.Dl.Batch.params.Dl.Params.d = bits b.Dl.Batch.params.Dl.Params.d
  && bits a.Dl.Batch.params.Dl.Params.k = bits b.Dl.Batch.params.Dl.Params.k

let same_summary (a : Dl.Batch.summary) (b : Dl.Batch.summary) =
  a.Dl.Batch.evaluated = b.Dl.Batch.evaluated
  && a.Dl.Batch.skipped = b.Dl.Batch.skipped
  && bits a.Dl.Batch.mean_overall = bits b.Dl.Batch.mean_overall
  && Array.length a.Dl.Batch.results = Array.length b.Dl.Batch.results
  && Array.for_all2 same_result a.Dl.Batch.results b.Dl.Batch.results

type pass = { jobs : int; seconds : float; cpu : float; summary : Dl.Batch.summary }

let evaluate ds stories ~seed ~jobs =
  let pool = if jobs = 1 then Parallel.Pool.sequential else Parallel.Pool.create ~jobs () in
  let cpu0 = Common.cpu_s 0 in
  let summary, seconds =
    Common.timed (fun () ->
        Dl.Batch.evaluate ~pool ~mode:(Dl.Batch.Out_of_sample seed) ds ~stories)
  in
  { jobs; seconds; cpu = Common.cpu_s 0 -. cpu0; summary }

let rate p = float_of_int p.summary.Dl.Batch.evaluated /. p.seconds

(* Alternate j1 and jN passes until [seconds] have gone (at least one
   of each), so both sides see the same machine conditions. *)
let measure ds stories ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let rec go acc =
    let p1 = evaluate ds stories ~seed ~jobs:1 in
    let pn = evaluate ds stories ~seed ~jobs:jobs_n in
    let acc = pn :: p1 :: acc in
    if Unix.gettimeofday () -. t0 +. p1.seconds +. pn.seconds > seconds then List.rev acc
    else go acc
  in
  go []

let median_rate passes jobs =
  Stats.median
    (Array.of_list (List.filter_map (fun p -> if p.jobs = jobs then Some (rate p) else None) passes))

(* The traced per-story pass: the pipeline's own steps, each under a
   benchmark span, with the registry scraped around the whole pass. *)
let story_pass ds stories ~seed ~spans =
  let before = Prom.local () in
  let overall =
    Array.map
      (fun story ->
        Spans.with_span spans "story" (fun () ->
            match
              Spans.with_span spans "core.prepare" (fun () ->
                  Dl.Pipeline.prepare ds ~story ~metric:Dl.Pipeline.hops)
            with
            | exception Invalid_argument _ -> nan
            | pre ->
              let rng = Numerics.Rng.create (seed + story.Socialnet.Types.id) in
              let fit =
                Spans.with_span spans "core.fit" (fun () ->
                    Dl.Fit.fit ~config:Dl.Fit.default_config rng pre.Dl.Pipeline.pr_observation)
              in
              Spans.with_span spans "core.score" (fun () ->
                  let solution =
                    Dl.Model.solve fit.Dl.Fit.params ~phi:pre.Dl.Pipeline.pr_phi
                      ~times:pre.Dl.Pipeline.pr_times
                  in
                  let exp =
                    Dl.Pipeline.finish pre ~params:fit.Dl.Fit.params
                      ~fit_error:(Some fit.Dl.Fit.training_error) ~solution
                  in
                  exp.Dl.Pipeline.table.Dl.Accuracy.overall_average)))
      stories
  in
  (overall, before, Prom.local ())

let run ~seed ~seconds ~trace =
  let (ds, stories), setup_s = Common.setup_median build_corpus ~discard:ignore in
  let budget = if trace then seconds /. 2. else seconds in
  let passes = measure ds stories ~seed ~seconds:budget in
  (* the median over passes, as the host's speed varies from pass to pass *)
  let cpu_per_story =
    Stats.median
      (Array.of_list
         (List.map (fun p -> p.cpu /. float_of_int p.summary.Dl.Batch.evaluated) passes))
  in
  let reference = (List.hd passes).summary in
  let checks = List.map (fun p -> same_summary reference p.summary) passes in
  let golden =
    match List.assoc_opt seed recorded with
    | None -> []
    | Some (ev, sk, mean_bits) ->
      [
        reference.Dl.Batch.evaluated = ev
        && reference.Dl.Batch.skipped = sk
        && bits reference.Dl.Batch.mean_overall = mean_bits;
      ]
  in
  let r1 = median_rate passes 1 and rn = median_rate passes jobs_n in
  Common.notes
    [
      ( "corpus",
        Printf.sprintf "Digg.medium seed %d, top %d stories, pool sizes 1 and %d" corpus_seed
          n_top jobs_n );
      ( "result",
        Printf.sprintf "evaluated %d, skipped %d, mean accuracy %.6f (%Ld)"
          reference.Dl.Batch.evaluated reference.Dl.Batch.skipped
          reference.Dl.Batch.mean_overall (bits reference.Dl.Batch.mean_overall) );
      ( "passes",
        String.concat ", "
          (List.map (fun p -> Printf.sprintf "j%d %.3f s" p.jobs p.seconds) passes) );
      ("recorded seed", if golden = [] then "no (determinism checks only)" else "yes");
      ( "stories per second",
        Printf.sprintf "forecast_stories_per_s.j1 %.4f, forecast_stories_per_s.jN %.4f" r1 rn );
      ( "cpu per story",
        String.concat ", "
          (List.map
             (fun p ->
               Printf.sprintf "j%d %.1f ms" p.jobs
                 (1e3 *. p.cpu /. float_of_int p.summary.Dl.Batch.evaluated))
             passes) );
    ];
  if not trace then begin
    let checks = checks @ golden in
    {
      Common.metrics =
        [
          Common.m "cpu_ms_per_op" "ms" (1e3 *. cpu_per_story);
          Common.m "setup_s" "s" setup_s;
          Common.m "peak_rss_mb" "MB" (Common.peak_rss_mb 0);
        ];
      attempted = List.length checks;
      failed = List.length (List.filter not checks);
    }
  end
  else begin
    Obs.set_enabled true;
    let p1 = evaluate ds stories ~seed ~jobs:1 in
    let pn = evaluate ds stories ~seed ~jobs:jobs_n in
    let after = Prom.local () in
    Common.note "traced passes" (Printf.sprintf "j1 %.3f s, j%d %.3f s" p1.seconds jobs_n pn.seconds);
    let spans = Spans.recorder ~enabled:true in
    let overall, sb, sa = story_pass ds stories ~seed ~spans in
    Spans.write_json spans (Filename.concat !Common.work_dir "spans-offline-forecast.json");
    let span_checks =
      Array.to_list
        (Array.map2
           (fun o (r : Dl.Batch.story_result) ->
             match r.Dl.Batch.skipped with
             | Some _ -> true
             | None -> bits o = bits r.Dl.Batch.overall)
           overall reference.Dl.Batch.results)
    in
    let checks =
      checks @ golden @ [ same_summary reference p1.summary; same_summary reference pn.summary ]
      @ span_checks
    in
    let c name = Prom.counter ~before:sb ~after:sa name in
    let panel_ns = Prom.hist_sum ~before:sb ~after:sa "pde.panel_solve_ns" in
    let fit_s = Array.fold_left ( +. ) 0. (Spans.self_times spans "core.fit") in
    let n = float_of_int (Array.length stories) in
    let mean_self name = Stats.mean (Spans.self_times spans name) in
    let evals = c "fit.objective_evals" in
    {
      Common.metrics =
        [
          Common.m "numerics.panel_solve_us" "us"
            (Prom.hist_mean ~before:sb ~after:sa "pde.panel_solve_ns" /. 1e3);
          Common.m "numerics.panel_solves_per_story" "count" (c "pde.panel_solves" /. n);
          Common.m "numerics.panel_reuse_ratio" "ratio"
            (let reuse = c "pde.panel_reuses" and rebuild = c "pde.panel_rebuilds" in
             reuse /. Float.max 1. (reuse +. rebuild));
          Common.m "numerics.pde_share_of_fit" "ratio" (panel_ns /. 1e9 /. fit_s);
          Common.m "core.fit_s" "s" (mean_self "core.fit");
          Common.m "core.prepare_ms" "ms" (1e3 *. mean_self "core.prepare");
          Common.m "core.score_ms" "ms" (1e3 *. mean_self "core.score");
          Common.m "core.fit_evaluations" "count" evals;
          Common.m "core.objective_memo_hit_ratio" "ratio"
            (c "fit.objective_cache_hits" /. Float.max 1. evals);
          Common.m "parallel.speedup" "ratio" (rn /. r1);
          Common.m "parallel.imbalance" "ratio"
            (Option.value ~default:1. (Prom.gauge after "pool.imbalance"));
          Common.m "socialnet.corpus_build_s" "s" setup_s;
          Common.m "obs.trace_overhead.offline-forecast" "ratio"
            ((p1.seconds +. pn.seconds)
            /. ((float_of_int p1.summary.Dl.Batch.evaluated /. r1)
               +. (float_of_int pn.summary.Dl.Batch.evaluated /. rn)));
        ];
      attempted = List.length checks;
      failed = List.length (List.filter not checks);
    }
  end

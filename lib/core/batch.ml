open Socialnet

type mode = Paper_params | In_sample of int | Out_of_sample of int

type story_result = {
  story_id : int;
  votes : int;
  overall : float;
  params : Params.t;
  skipped : string option;
}

type summary = {
  results : story_result array;
  evaluated : int;
  skipped : int;
  mean_overall : float;
  median_overall : float;
  worst : float;
  best : float;
}

let top_stories ds ~n =
  let all = Array.copy (Dataset.stories ds) in
  (* Tie-break equal vote counts by story id: Array.sort is not stable,
     so without it the selection (and everything downstream) would
     depend on the compiler's sort implementation. *)
  Array.sort
    (fun a b ->
      let c = compare (Types.story_vote_count b) (Types.story_vote_count a) in
      if c <> 0 then c else compare a.Types.id b.Types.id)
    all;
  Array.sub all 0 (Stdlib.min n (Array.length all))

let param_choice_of_mode story mode =
  match mode with
  | Paper_params -> Pipeline.Paper
  | In_sample seed ->
    Pipeline.Auto
      {
        rng = Numerics.Rng.create (seed + story.Types.id);
        config =
          { Fit.default_config with fit_times = [| 2.; 3.; 4.; 5.; 6. |] };
      }
  | Out_of_sample seed ->
    Pipeline.Auto
      {
        rng = Numerics.Rng.create (seed + story.Types.id);
        config = Fit.default_config;
      }

let m_stories = Obs.Metrics.counter "batch.stories"
let m_story_wall_ns = Obs.Metrics.histogram "batch.story_wall_ns"

let base_result story =
  {
    story_id = story.Types.id;
    votes = Types.story_vote_count story;
    overall = nan;
    params = Params.paper_hops;
    skipped = None;
  }

let finish_story_result (base : story_result) (exp : Pipeline.experiment) =
  let overall = exp.Pipeline.table.Accuracy.overall_average in
  if Float.is_nan overall then
    { base with skipped = Some "no defined accuracy cells" }
  else { base with overall; params = exp.Pipeline.params }

let log_story_result r =
  Obs.Metrics.incr m_stories;
  Obs.Log.info "batch.story" ~fields:(fun () ->
      [
        Obs.Log.int "story" r.story_id;
        Obs.Log.int "votes" r.votes;
        Obs.Log.float "overall" r.overall;
        Obs.Log.str "skipped" (match r.skipped with None -> "" | Some m -> m);
      ])

(* Paper-parameter batches involve no calibration, so every story whose
   observations share a domain (l, L) can advance through one fused
   panel solve — the grid and CFL bookkeeping are built once per group
   and each time step runs one batched Thomas sweep across the whole
   group.  Scores are bit-identical to the per-story path: every panel
   column is bit-identity-gated against the reference stepper. *)
let evaluate_paper ~pool ~metric ds ~stories =
  let n = Array.length stories in
  (* front half per story: observation, trimming, phi, domain (cheap
     next to the solve) *)
  let pres =
    Array.map
      (fun story ->
        match Pipeline.prepare ds ~story ~metric with
        | pre -> Ok pre
        | exception Invalid_argument msg -> Error msg)
      stories
  in
  (* group indices by shared domain; groups appear in first-story
     order, stories keep their input order inside a group *)
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  Array.iteri
    (fun i -> function
      | Error _ -> ()
      | Ok pre ->
        let key = (pre.Pipeline.pr_l, pre.Pipeline.pr_big_l) in
        (match Hashtbl.find_opt tbl key with
        | Some members -> members := i :: !members
        | None ->
          Hashtbl.add tbl key (ref [ i ]);
          order := key :: !order))
    pres;
  let groups =
    Array.of_list
      (List.rev_map
         (fun key -> Array.of_list (List.rev !(Hashtbl.find tbl key)))
         !order)
  in
  let pre_exn i =
    match pres.(i) with Ok pre -> pre | Error _ -> assert false
  in
  let solve_group idxs =
    let members =
      Array.map
        (fun i ->
          let pre = pre_exn i in
          (Pipeline.paper_params pre, pre.Pipeline.pr_phi))
        idxs
    in
    let times = (pre_exn idxs.(0)).Pipeline.pr_times in
    Obs.Span.with_span "batch.panel"
      ~attrs:(fun () -> [ Obs.Log.int "stories" (Array.length idxs) ])
      (fun () ->
        match Model.solve_panel members ~times with
        | sols -> Array.map (fun s -> Ok s) sols
        | exception (Invalid_argument _ | Numerics.Mat.Singular) ->
          (* a pathological story poisons the fused sweep; retry story
             by story so the rest of the group still scores *)
          Array.map
            (fun (p, phi) ->
              match Model.solve p ~phi ~times with
              | s -> Ok s
              | exception Invalid_argument msg -> Error msg
              | exception Numerics.Mat.Singular ->
                Error "singular system during solve")
            members)
  in
  let solved = Parallel.Pool.parallel_map pool solve_group groups in
  let solutions = Array.make n None in
  Array.iteri
    (fun g idxs ->
      Array.iteri (fun j i -> solutions.(i) <- Some solved.(g).(j)) idxs)
    groups;
  (* back half per story: accuracy table and result record (one
     batch.story span each, as on the calibrated path) *)
  Array.mapi
    (fun i story ->
      Obs.Span.with_span "batch.story"
        ~attrs:(fun () -> [ Obs.Log.int "story" story.Types.id ])
        (fun () ->
          let wall_start = if Obs.enabled () then Obs.now_ns () else 0 in
          let base = base_result story in
          let r =
            match (pres.(i), solutions.(i)) with
            | Error msg, _ -> { base with skipped = Some msg }
            | Ok _, (None | Some (Error _)) ->
              let msg =
                match solutions.(i) with
                | Some (Error msg) -> msg
                | _ -> "no defined accuracy cells"
              in
              { base with skipped = Some msg }
            | Ok pre, Some (Ok solution) -> (
              match
                Pipeline.finish pre ~params:(Pipeline.paper_params pre)
                  ~fit_error:None ~solution
              with
              | exp -> finish_story_result base exp
              | exception Invalid_argument msg ->
                { base with skipped = Some msg })
          in
          if Obs.enabled () then
            Obs.Metrics.observe m_story_wall_ns
              (float_of_int (Obs.now_ns () - wall_start));
          log_story_result r;
          r))
    stories

let evaluate ?(pool = Parallel.Pool.sequential) ?(mode = In_sample 1)
    ?(metric = Pipeline.hops) ds ~stories =
 Obs.Span.with_span "batch.evaluate"
   ~attrs:(fun () -> [ Obs.Log.int "stories" (Array.length stories) ])
 @@ fun () ->
  (* Parallelism lives at the story level: each story owns an
     independent rng (seeded from its id), so the per-story results are
     identical for any pool size.  The fit inside each story stays
     sequential — parallelising both levels would oversubscribe. *)
  let eval_story story =
    Obs.Span.with_span "batch.story"
      ~attrs:(fun () -> [ Obs.Log.int "story" story.Types.id ])
      (fun () ->
        let wall_start = if Obs.enabled () then Obs.now_ns () else 0 in
        let base = base_result story in
        let r =
          match
            Pipeline.run ~params:(param_choice_of_mode story mode) ds ~story
              ~metric
          with
          | exp -> finish_story_result base exp
          | exception Invalid_argument msg -> { base with skipped = Some msg }
          | exception Numerics.Mat.Singular ->
            { base with skipped = Some "singular system during solve" }
        in
        if Obs.enabled () then
          Obs.Metrics.observe m_story_wall_ns
            (float_of_int (Obs.now_ns () - wall_start));
        log_story_result r;
        r)
  in
  let results =
    match mode with
    | Paper_params -> evaluate_paper ~pool ~metric ds ~stories
    | In_sample _ | Out_of_sample _ ->
      Parallel.Pool.parallel_map pool eval_story stories
  in
  let scores =
    Array.of_list
      (List.filter_map
         (fun (r : story_result) ->
           if r.skipped = None then Some r.overall else None)
         (Array.to_list results))
  in
  let evaluated = Array.length scores in
  let summary =
    if evaluated = 0 then
      {
        results;
        evaluated;
        skipped = Array.length results;
        mean_overall = nan;
        median_overall = nan;
        worst = nan;
        best = nan;
      }
    else
      {
        results;
        evaluated;
        skipped = Array.length results - evaluated;
        mean_overall = Numerics.Stats.mean scores;
        median_overall = Numerics.Stats.median scores;
        worst = Numerics.Stats.min scores;
        best = Numerics.Stats.max scores;
      }
  in
  Obs.Log.info "batch.summary" ~fields:(fun () ->
      [
        Obs.Log.int "evaluated" summary.evaluated;
        Obs.Log.int "skipped" summary.skipped;
        Obs.Log.float "mean_overall" summary.mean_overall;
        Obs.Log.float "median_overall" summary.median_overall;
      ]);
  summary

let mean_accuracy_ci ?confidence rng s =
  let scores =
    Array.of_list
      (List.filter_map
         (fun (r : story_result) ->
           if r.skipped = None then Some r.overall else None)
         (Array.to_list s.results))
  in
  if Array.length scores < 2 then None
  else Some (Numerics.Stats_tests.bootstrap_mean_ci ?confidence rng scores)

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v>%d stories evaluated (%d skipped)@,\
     overall accuracy: mean %.2f%%, median %.2f%%, range [%.2f%%, %.2f%%]@]"
    s.evaluated s.skipped (100. *. s.mean_overall) (100. *. s.median_overall)
    (100. *. s.worst) (100. *. s.best)

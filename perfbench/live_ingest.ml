(* Workload [live-ingest]: replayed vote streams paced into
   POST /observe while GET /predict reads the stories' serving fits.

   This is the only workload that drives Live.Profile, drift checks,
   warm refits on the server's worker domains and fsynced store
   appends.  Stories start at staggered hours, as submissions do, and
   each plays out over the replay's 1..6 hour observation grid. *)

module J = Serve.Tiny_json
module R = Socialnet.Replay

let n_stories = 48
let speedup = 3600.  (* event hours per wall hour *)
let stagger_h = 0.5  (* submission hours between consecutive stories *)
let tick = 0.005  (* votes of one story due within 5 ms go in one batch *)
let read_rate = 250.  (* GET /predict per second on the second connection *)
let poll_every = 0.01  (* GET /live cadence while a refit is pending *)
let settle_s = 60.  (* longest wait for in-flight refits after the stream *)

(* The server keeps its default drift threshold but needs 20 new votes
   (default 4) between refits of a story.  With the default gate a few
   stories whose drift stays above the threshold refit every few votes,
   so the daemon's work, and the server's CPU per vote, would hinge on
   which stories a seed draws (0.66-0.97 ms per vote over seven seeds,
   against 0.64-0.72 ms with this gate). *)
let drift_threshold = Common.base_config.Serve.Server.drift_threshold
let refit_min_new_votes = 20

type story = {
  name : string;
  stream : R.stream;
  events : R.event array;
  offset_h : float;  (* submission hour within the run *)
}

let simulate ~seed =
  Array.init n_stories (fun i ->
      let stream, dt = Common.timed (fun () -> R.simulate ~seed:((seed * 1000) + i) ()) in
      ((stream, stream.R.events), dt))

let store_dir () = Filename.concat !Common.work_dir "live-store"

type setup = {
  child : Common.child;
  lg : Loadgen.t;
  streams : (R.stream * R.event array) array;
  simulate_s : float array;  (* per story *)
}

let setup ~seed =
  let sims = simulate ~seed in
  Common.rm_rf (store_dir ());
  let child =
    Common.spawn
      {
        Common.base_config with
        Serve.Server.store_dir = Some (store_dir ());
        refit_min_new_votes;
      }
  in
  let lg = Loadgen.connect ~port:child.Common.port 2 in
  { child; lg; streams = Array.map fst sims; simulate_s = Array.map snd sims }

(* A fixed stagger keeps about sixteen stories live at any moment: the
   stream lasts about 31 s at 3600x whatever --seconds says.  How often
   a story drifts enough to refit varies from story to story, so the
   daemon's work per vote is steadier across seeds the more stories a
   run replays. *)
let stories_of s =
  Array.mapi
    (fun i (stream, events) ->
      { name = Printf.sprintf "s%d" i; stream; events; offset_h = stagger_h *. float_of_int i })
    s.streams

(* Wall seconds until the last vote of [stories] is due. *)
let stream_seconds stories =
  Array.fold_left
    (fun acc st ->
      let n = Array.length st.events in
      if n = 0 then acc else Float.max acc ((st.offset_h +. st.events.(n - 1).R.time) *. 3600. /. speedup))
    0. stories

let observe_body st ~first ~count =
  let votes =
    List.init count (fun k ->
        let e = st.events.(first + k) in
        J.Object
          [
            ("voter", J.Number (float_of_int e.R.voter));
            ("time", J.Number e.R.time);
            ("distance", J.Number (float_of_int e.R.distance));
          ])
  in
  let nums a = J.List (Array.to_list (Array.map (fun v -> J.Number v) a)) in
  J.to_string
    (J.Object
       ([ ("story", J.String st.name); ("votes", J.List votes) ]
       @
       if first = 0 then
         [
           ("times", nums st.stream.R.times);
           ("population", nums (Array.map float_of_int st.stream.R.population));
           ("max_distance", J.Number (float_of_int st.stream.R.max_distance));
         ]
       else []))

type item = Obs of int * int * int | Read of int | Poll

type pass = {
  (* (start, stop) wall times: due -> reply for requests, refit
     scheduled -> new serving fit visible for lags *)
  observe_lat : (float * float) array;
  read_lat : (float * float) array;
  lags : (float * float) array;
  late : float array;
  sent : int;
  failed : int;
  refits_judged : int;
  refits_effective : int;
  refits_abandoned : int;  (* scheduled refits that ended without a fit *)
  observe_bodies : string list;  (* a sample, for the codec probes *)
  final_votes : (string * int) list;  (* from GET /live at the end *)
  fits_reported : int;  (* sum of /live fits over this pass's stories *)
  before : Prom.t;
  after : Prom.t;
}

let field_str name j = Option.bind (J.member name j) J.to_string_opt
let field_float name j = Option.bind (J.member name j) J.to_float

let run_pass s stories ~spans =
  let seconds = stream_seconds stories in
  let index = Hashtbl.create 16 in
  Array.iteri (fun i st -> Hashtbl.replace index st.name i) stories;
  let items = ref [] in
  Array.iteri
    (fun i st ->
      let due =
        Schedule.paced ~speedup (Array.map (fun e -> st.offset_h +. e.R.time) st.events)
      in
      Array.iter
        (fun (d, first, count) -> items := (d, Obs (i, first, count)) :: !items)
        (Schedule.batches ~tick due))
    stories;
  let span_s = seconds in
  Array.iteri (fun k d -> items := (d, Read k) :: !items) (Schedule.constant ~rate:read_rate ~duration:span_s);
  Array.iter (fun d -> items := (d, Poll) :: !items) (Schedule.constant ~rate:(1. /. poll_every) ~duration:span_s);
  let items = Array.of_list (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !items) in
  let n = Array.length items in
  (* per-story state, as the replies reveal it *)
  let serving = Array.make n_stories None in
  let pending = Array.make n_stories None in  (* (scheduled at, fit then) *)
  let judge = Array.make n_stories None in  (* warm fit awaiting its next drift *)
  let observe_lat = ref [] and read_lat = ref [] and lags = ref [] and late = ref [] in
  let failed = ref 0 and sent = ref 0 in
  let judged = ref 0 and effective = ref 0 and abandoned = ref 0 in
  let bodies = ref [] in
  let kind_of = Hashtbl.create 4096 in
  let on_live_doc ~recv doc =
    match Option.bind (J.member "stories" doc) J.to_list with
    | None -> ()
    | Some rows ->
      List.iter
        (fun row ->
          match Option.bind (field_str "story" row) (Hashtbl.find_opt index) with
          | None -> ()
          | Some i -> (
            let fit = field_str "fit" row in
            serving.(i) <- fit;
            match pending.(i) with
            | Some (t_sched, before) when fit <> before ->
              lags := (t_sched, recv) :: !lags;
              pending.(i) <- None;
              if before <> None then judge.(i) <- fit
            | Some _ when J.member "refit_inflight" row = Some (J.Bool false) ->
              incr abandoned;
              pending.(i) <- None
            | _ -> ()))
        rows
  in
  let on_reply (r : Loadgen.reply) =
    let kind = Hashtbl.find_opt kind_of r.Loadgen.tag in
    Spans.add spans
      (match kind with Some (Obs _) -> "observe" | Some (Read _) -> "predict" | _ -> "live")
      ~start:r.Loadgen.sent ~stop:r.Loadgen.recv;
    Hashtbl.remove kind_of r.Loadgen.tag;
    if r.Loadgen.status <> 200 then incr failed
    else
      match (kind, J.parse r.Loadgen.body) with
      | _, Error _ | None, _ -> incr failed
      | Some (Obs (i, _, _)), Ok doc ->
        observe_lat := (r.Loadgen.due, r.Loadgen.recv) :: !observe_lat;
        let fit = field_str "fit" doc in
        if fit <> None then serving.(i) <- fit;
        (match (judge.(i), field_float "drift" doc) with
        | Some f, Some d when fit = Some f ->
          incr judged;
          if d < drift_threshold then incr effective;
          judge.(i) <- None
        | _ -> ());
        if J.member "refit_scheduled" doc = Some (J.Bool true) then
          pending.(i) <- Some (r.Loadgen.recv, fit)
      | Some (Read _), Ok _ -> read_lat := (r.Loadgen.due, r.Loadgen.recv) :: !read_lat
      | Some Poll, Ok doc -> on_live_doc ~recv:r.Loadgen.recv doc
  in
  let send_item ~due tag item =
    let req =
      match item with
      | Obs (i, first, count) ->
        let body = observe_body stories.(i) ~first ~count in
        if first = 0 || tag mod 101 = 0 then bodies := body :: !bodies;
        Some (0, Loadgen.post_request "/observe" body)
      | Read k -> (
        let live = List.filter (fun i -> serving.(i) <> None) (List.init n_stories Fun.id) in
        match live with
        | [] -> None
        | _ ->
          let i = List.nth live (k mod List.length live) in
          Some
            ( 1,
              Loadgen.get_request
                (Printf.sprintf "/predict?fit=%s&x=%d&t=%d" (Option.get serving.(i))
                   (1 + (k mod 3)) (2 + (k mod 5))) ))
      | Poll ->
        if Array.exists Option.is_some pending then Some (0, Loadgen.get_request "/live")
        else None
    in
    match req with
    | None -> ()
    | Some (conn, bytes) ->
      Hashtbl.replace kind_of tag item;
      incr sent;
      Loadgen.send s.lg ~conn ~due ~tag bytes;
      late := Float.max 0. (Unix.gettimeofday () -. due) :: !late
  in
  let before = Common.scrape s.lg () in
  let t0 = Unix.gettimeofday () +. 0.05 in
  Spans.with_span spans "live.stream" (fun () ->
      Array.iteri
        (fun tag (d, item) ->
          let due = t0 +. d in
          Loadgen.pump s.lg ~until:due ~on_reply;
          send_item ~due tag item)
        items;
      (* keep polling until every scheduled refit has landed *)
      let deadline = Unix.gettimeofday () +. settle_s in
      let tag = ref n in
      while Array.exists Option.is_some pending && Unix.gettimeofday () < deadline do
        let due = Unix.gettimeofday () +. poll_every in
        Loadgen.pump s.lg ~until:due ~on_reply;
        send_item ~due !tag Poll;
        incr tag
      done;
      Loadgen.drain s.lg ~deadline:(Unix.gettimeofday () +. 30.) ~on_reply);
  if Array.exists Option.is_some pending then incr failed;
  let final = Common.request s.lg (Loadgen.get_request "/live") in
  let after = Common.scrape s.lg () in
  let final_votes, fits_reported =
    match J.parse final.Loadgen.body with
    | Ok doc ->
      let rows = Option.value ~default:[] (Option.bind (J.member "stories" doc) J.to_list) in
      List.fold_left
        (fun (votes, fits) row ->
          match field_str "story" row with
          | Some name when Hashtbl.mem index name ->
            ( (name, int_of_float (Option.value ~default:(-1.) (field_float "votes" row))) :: votes,
              fits + int_of_float (Option.value ~default:0. (field_float "fits" row)) )
          | _ -> (votes, fits))
        ([], 0) rows
    | Error _ -> ([], 0)
  in
  let arr l = Array.of_list (List.rev l) in
  {
    observe_lat = arr !observe_lat;
    read_lat = arr !read_lat;
    lags = arr !lags;
    late = arr !late;
    sent = !sent;
    failed = !failed;
    refits_judged = !judged;
    refits_effective = !effective;
    refits_abandoned = !abandoned;
    observe_bodies = !bodies;
    final_votes;
    fits_reported;
    before;
    after;
  }

(* The server's final vote count per story must equal an offline
   profile fed the same votes in the same order. *)
let vote_checks stories pass =
  Array.to_list stories
  |> List.map (fun st ->
         let p =
           Live.Profile.create ~lateness:Common.base_config.Serve.Server.live_lateness
             ~max_distance:st.stream.R.max_distance ~times:st.stream.R.times
             ~population:st.stream.R.population ()
         in
         Array.iter (fun e -> ignore (Live.Profile.add p ~distance:e.R.distance ~time:e.R.time)) st.events;
         List.assoc_opt st.name pass.final_votes = Some (Live.Profile.votes p))

(* In-process probes on the same state the server saw. *)
let layer_probes s pass =
  let stream, events = s.streams.(0) in
  let profile () =
    Live.Profile.create ~max_distance:stream.R.max_distance ~times:stream.R.times
      ~population:stream.R.population ()
  in
  let add_ns =
    let reps = ref 0 and total = ref 0. in
    while !total < 0.2 do
      let p = profile () in
      let t0 = Unix.gettimeofday () in
      Array.iter (fun e -> ignore (Live.Profile.add p ~distance:e.R.distance ~time:e.R.time)) events;
      total := !total +. (Unix.gettimeofday () -. t0);
      reps := !reps + Array.length events
    done;
    1e9 *. !total /. float_of_int !reps
  in
  let p = profile () in
  Array.iter (fun e -> ignore (Live.Profile.add p ~distance:e.R.distance ~time:e.R.time)) events;
  let obs = Live.Profile.density p in
  let observed = Live.Profile.observed_times p in
  (* a warm fit on the final profile, as the daemon would serve it *)
  let fit_times = Array.of_list (List.filter (fun t -> t > 1.) (Array.to_list observed)) in
  let config = { Dl.Fit.default_config with Dl.Fit.fit_times; starts = 1 } in
  let result = Dl.Fit.fit ~config (Numerics.Rng.create 7) obs in
  let phi = Dl.Fit.phi_of_obs obs in
  let sol = Dl.Model.solve result.Dl.Fit.params ~phi ~times:observed in
  let predict = Dl.Model.predictor sol in
  let drift_s =
    Layers.per_call (fun () -> ignore (Live.Drift.relative_error ~predict ~obs ~times:observed))
  in
  let probe_dir = Filename.concat !Common.work_dir "store-probe" in
  Common.rm_rf probe_dir;
  let store = Store.open_ ~fsync:true ~source:"live" probe_dir in
  let appends = 20 in
  let (), append_s =
    Common.timed (fun () ->
        for g = 1 to appends do
          Store.append store
            (Store.record_of_fit ~id:(Printf.sprintf "live-probe-g%d" g) ~story:"probe"
               ~source:"live" ~obs_cursor:(Live.Profile.watermark p) ~phi ~config ~result ())
        done)
  in
  Store.close store;
  Common.rm_rf probe_dir;
  let body =
    match pass.observe_bodies with
    | [] -> observe_body { name = "probe"; stream; events; offset_h = 0. } ~first:1 ~count:1
    | b :: _ -> b
  in
  ( add_ns,
    drift_s *. 1e6,
    append_s *. 1e3 /. float_of_int appends,
    Layers.decode_ns body,
    Layers.parse_ns (Loadgen.post_request "/observe" body) )

(* The server always traces (Serve.Server.create turns Obs on), so
   untraced and traced runs alike measure a traced server; --trace 1
   adds the benchmark's own client-side spans and the layer probes. *)
let run ~seed ~seconds:_ ~trace =
  let s, setup_s =
    Common.setup_median (fun () -> setup ~seed) ~child:(fun s -> s.child.Common.pid)
      ~discard:(fun s ->
        Loadgen.close s.lg;
        ignore (Common.stop_server s.child))
  in
  let spans = Spans.recorder ~enabled:trace in
  let stories = stories_of s in
  let cpu0 = Common.cpu_s s.child.Common.pid in
  let p = run_pass s stories ~spans in
  let cpu = Common.cpu_s s.child.Common.pid -. cpu0 in
  let votes = Array.fold_left (fun acc st -> acc + Array.length st.events) 0 stories in
  let fits = Prom.counter ~before:p.before ~after:p.after "live.fits" in
  let refits = Prom.counter ~before:p.before ~after:p.after "live.refits" in
  let rss = Common.peak_rss_mb s.child.Common.pid in
  Loadgen.close s.lg;
  let stopped = Common.stop_server s.child in
  let records, _ = Store.load (store_dir ()) in
  let store_ok = List.length records = int_of_float fits in
  let fits_ok = p.fits_reported = int_of_float fits in
  let checks = vote_checks stories p @ [ store_ok; fits_ok; refits > 0.; stopped ] in
  let failed_checks = List.length (List.filter not checks) in
  let failed = p.failed + failed_checks in
  let attempted = p.sent + List.length checks in
  let late = p.late in
  let invalid = Common.ms (Stats.median late) > Serve_predict.max_late_p50_ms in
  let durations a = Array.map (fun (a, b) -> b -. a) a in
  let observe = durations p.observe_lat and lags = durations p.lags in
  let read = durations p.read_lat in
  Common.notes
    [
      ( "pass",
        Printf.sprintf "%d votes in %d /observe, %d reads, %d refit lags, abandoned refits %d, failed %d"
          votes (Array.length observe) (Array.length read) (Array.length lags)
          p.refits_abandoned p.failed );
      ( "latency",
        Printf.sprintf "observe_p50_ms %.3f, observe_p99_ms %.3f, live_predict_p99_ms %.3f, refit_lag_s_p50 %.4f"
          (Common.ms (Stats.median observe))
          (Common.pct_ms "observe" observe 0.99)
          (Common.pct_ms "live predict" read 0.99)
          (match Stats.percentile lags 0.5 with
          | Some v -> v
          | None -> failwith (Printf.sprintf "refit lag: %d samples cannot support p50" (Array.length lags))) );
      ( "daemon",
        Printf.sprintf "fits %.0f, warm refits %.0f, objective evaluations %.0f, store records %d"
          fits refits
          (Prom.counter ~before:p.before ~after:p.after "fit.objective_evals")
          (List.length records) );
      ("server cpu", Printf.sprintf "%.3f s for %d votes" cpu votes);
      ("checks", Printf.sprintf "%d of %d passed" (List.length checks - failed_checks) (List.length checks));
      ( "generator lateness",
        Printf.sprintf "p50 %.3f ms, p99 %.3f ms, max %.3f ms"
          (Common.ms (Stats.median late))
          (Common.ms (Option.value ~default:nan (Stats.percentile late 0.99)))
          (Common.ms (Array.fold_left Float.max 0. late)) );
      ("generator", if invalid then "FELL BEHIND (run invalid)" else "on schedule");
    ];
  let metrics =
    if not trace then
      [
        Common.m "cpu_ms_per_op" "ms" (1e3 *. cpu /. float_of_int votes);
        Common.m "setup_s" "s" setup_s;
        Common.m "peak_rss_mb" "MB" rss;
      ]
    else begin
      let phases = [ (p.before, p.after) ] in
      let d name = Prom.counter_over phases name in
      let mean ?label name = Prom.mean_over ?label phases name in
      let add_ns, drift_us, append_ms, decode_ns, parse_ns = layer_probes s p in
      let refit_ms = mean "live.refit_ns" /. 1e6 in
      Spans.write_json spans (Filename.concat !Common.work_dir "spans-live-ingest.json");
      [
        Common.m "socialnet.replay_simulate_ms" "ms" (1e3 *. Stats.median s.simulate_s);
        Common.m "serve.handler_us.observe" "us" (mean ~label:"observe" "serve.request_ns" /. 1e3);
        Common.m "http.parse_ns.observe" "ns" parse_ns;
        Common.m "json.decode_ns.observe" "ns" decode_ns;
        Common.m "live.profile_add_ns" "ns" add_ns;
        Common.m "live.drift_check_us" "us" drift_us;
        Common.m "live.fits" "count" fits;
        Common.m "live.refits" "count" refits;
        Common.m "live.refit_ms" "ms" refit_ms;
        (* means on both sides: the server only keeps the refit time's
           sum and count, and cold first fits weigh on both alike *)
        Common.m "live.refit_wait_s" "s" (Stats.mean lags -. (refit_ms /. 1e3));
        Common.m "live.refit_effective_ratio" "ratio"
          (if p.refits_judged = 0 then 0.
           else float_of_int p.refits_effective /. float_of_int p.refits_judged);
        Common.m "store.append_ms" "ms" append_ms;
        Common.m "store.appends" "count" (d "store.appends");
        Common.m "store.append_bytes" "bytes" (d "store.append_bytes");
      ]
    end
  in
  { Common.metrics; attempted; failed = (failed + if invalid then 1 else 0) }

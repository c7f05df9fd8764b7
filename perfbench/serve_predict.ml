(* Workload [serve-predict]: open-loop GET /predict against a server
   holding a few cached fits, at three fixed offered rates.

   Most requests hit the per-fit solution memo (transport and codec
   cost); a stated share asks for a fresh t, a memo miss that costs one
   full-resolution Model.solve; a few are POST /predict batches.
   Fitting is done in set-up and bypassed while measuring. *)

module J = Serve.Tiny_json

(* Light load, a mid rate that meets the latency limit with room to
   spare, and one near the knee where misses queue hits behind them. *)
let rates = [| 1000.; 2000.; 3000. |]

(* Each rate is measured in [windows] windows interleaved with the
   other rates', so slow drifts in the host's state touch every rate
   alike.  A rate's percentiles are read from its windows' pooled
   samples: the tail at the higher rates is made of short whole-server
   stalls, and a pooled sample holds several of them where a single
   window holds one or two. *)
let windows = 5

(* Loose enough that the top rate meets it on a quiet 2-vCPU host (its
   p99 there runs 10-30 ms), so [predict_max_rps] moves when the server
   gets slower rather than with every stall. *)
let latency_limit_ms = 50.
let n_fits = 3
let miss_share = 0.02
let batch_share = 0.01
let batch_points = 8
let hit_times = [| 2.; 3.; 4.; 5.; 6. |]

(* A miss asks for a fresh t (unique, so never memoised) in a narrow
   band: solve cost grows with t, and a narrow band makes every miss
   cost about one solve over 2.5 hours, so the tail the p99 reads is
   dense rather than smeared over a tenfold range of solve costs. *)
let miss_t0 = 3.5
let miss_t_span = 0.5
let conns = 2

(* A density table shaped like a small story: rows are distances 1..5,
   columns the hours 1..6; the seed scales each row so fits differ. *)
let fit_body ~seed i =
  let rng = Random.State.make [| seed; i |] in
  let base =
    [|
      [| 2.0; 3.0; 4.0; 4.8; 5.4; 5.8 |];
      [| 1.2; 1.9; 2.7; 3.4; 4.0; 4.4 |];
      [| 0.7; 1.1; 1.6; 2.1; 2.5; 2.8 |];
      [| 0.4; 0.6; 0.9; 1.2; 1.5; 1.7 |];
      [| 0.2; 0.3; 0.5; 0.7; 0.9; 1.0 |];
    |]
  in
  let density =
    Array.map
      (fun row ->
        let f = 0.8 +. Random.State.float rng 0.4 in
        Array.map (fun v -> Float.round (v *. f *. 1000.) /. 1000.) row)
      base
  in
  let nums a = J.List (Array.to_list (Array.map (fun v -> J.Number v) a)) in
  let body =
    J.to_string
      (J.Object
         [
           ("distances", nums [| 1.; 2.; 3.; 4.; 5. |]);
           ("times", nums [| 1.; 2.; 3.; 4.; 5.; 6. |]);
           ("density", J.List (Array.to_list (Array.map nums density)));
           ("starts", J.Number 1.);
           (* the server takes seeds of at most 1e9; the workload seed may be any int *)
           ("seed", J.Number (float_of_int (Random.State.int rng 1_000_000_000)));
         ])
  in
  (body, density)

type fit = {
  id : string;
  params : Dl.Params.t;
  phi : Dl.Initial.t;
}

let num_field name j =
  match Option.bind (J.member name j) J.to_float with
  | Some v -> v
  | None -> failwith ("fit reply lacks " ^ name)

let params_of_reply body =
  let doc = match J.parse body with Ok d -> d | Error e -> failwith e in
  let id = match Option.bind (J.member "fit" doc) J.to_string_opt with
    | Some s -> s | None -> failwith "fit reply lacks fit id" in
  let p = Option.get (J.member "params" doc) in
  let r = Option.get (J.member "r" p) in
  let growth =
    match Option.bind (J.member "kind" r) J.to_string_opt with
    | Some "constant" -> Dl.Growth.Constant (num_field "value" r)
    | _ ->
      Dl.Growth.Exp_decay
        { a = num_field "a" r; b = num_field "b" r; c = num_field "c" r }
  in
  ( id,
    Dl.Params.make ~d:(num_field "d" p) ~k:(num_field "k" p) ~r:growth
      ~l:(num_field "l" p) ~big_l:(num_field "L" p) )

(* Request kinds, drawn per request from the workload seed. *)
type kind = Hit of int * float * float | Miss of int * float * float | Batch of int

let draw_kinds ~seed ~rate ~window n =
  let rng = Random.State.make [| seed; int_of_float rate; window |] in
  Array.init n (fun _ ->
      let f = Random.State.int rng n_fits in
      let x = 1. +. Random.State.float rng 4. in
      let u = Random.State.float rng 1. in
      if u < miss_share then Miss (f, x, miss_t0 +. Random.State.float rng miss_t_span)
      else if u < miss_share +. batch_share then Batch f
      else Hit (f, x, hit_times.(Random.State.int rng (Array.length hit_times))))

let render fits = function
  | Hit (f, x, t) | Miss (f, x, t) ->
    Loadgen.get_request
      (Printf.sprintf "/predict?fit=%s&x=%.17g&t=%.17g" fits.(f).id x t)
  | Batch f ->
    let pts =
      List.init batch_points (fun i ->
          Printf.sprintf "[%d,%g]" (1 + (i mod 5)) hit_times.(i mod Array.length hit_times))
    in
    Loadgen.post_request "/predict"
      (Printf.sprintf "{\"fit\":\"%s\",\"points\":[%s]}" fits.(f).id
         (String.concat "," pts))

let setup ~seed =
  let child = Common.spawn Common.base_config in
  let lg = Loadgen.connect ~port:child.Common.port conns in
  let fits =
    Array.init n_fits (fun i ->
        let body, density = fit_body ~seed i in
        let r = Common.request lg (Loadgen.post_request "/fit" body) in
        if r.Loadgen.status <> 200 then
          failwith (Printf.sprintf "POST /fit: status %d %s" r.Loadgen.status r.Loadgen.body);
        let id, params = params_of_reply r.Loadgen.body in
        let phi =
          Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5. |]
            ~densities:(Array.map (fun row -> row.(0)) density)
        in
        { id; params; phi })
  in
  (* fill each fit's memo at the hit times, so the schedule's hits are
     hits from the first request *)
  Array.iter
    (fun f ->
      Array.iter
        (fun t ->
          let r =
            Common.request lg
              (Loadgen.get_request (Printf.sprintf "/predict?fit=%s&x=2&t=%g" f.id t))
          in
          if r.Loadgen.status <> 200 then failwith "warm-up GET /predict failed")
        hit_times)
    fits;
  (child, lg, fits)

type phase = {
  rate : float;
  lat : float array;  (* due -> response, seconds, every answered /predict *)
  service : float array;  (* sent -> response *)
  late : float array;  (* generator lateness *)
  sent : int;
  failed : int;
  backlog : int;  (* unanswered when the last request fell due *)
  span_s : float;  (* first due to last response *)
  before : Prom.t;
  after : Prom.t;
  checks : (fit * float * float * float) list;  (* fit, x, t, served density *)
  reply : string option;  (* a memo-hit reply body, for the codec probe *)
}

let run_phase lg fits ~seed ~rate ~window ~duration ~spans =
  let due_rel = Schedule.constant ~rate ~duration in
  let n = Array.length due_rel in
  let kinds = draw_kinds ~seed ~rate ~window n in
  let before = Common.scrape lg () in
  let lat = Array.make n nan and service = Array.make n nan and late = Array.make n nan in
  let failed = ref 0 and checks = ref [] and last_recv = ref 0. and reply = ref None in
  let on_reply (r : Loadgen.reply) =
    let i = r.Loadgen.tag in
    Spans.add spans "predict" ~start:r.Loadgen.sent ~stop:r.Loadgen.recv;
    if r.Loadgen.status = 200 then begin
      lat.(i) <- r.Loadgen.recv -. r.Loadgen.due;
      service.(i) <- r.Loadgen.recv -. r.Loadgen.sent;
      last_recv := Float.max !last_recv r.Loadgen.recv;
      (match kinds.(i) with
      | Hit _ when !reply = None -> reply := Some r.Loadgen.body
      | _ -> ());
      match kinds.(i) with
      | (Hit (f, x, t) | Miss (f, x, t)) when i mod 97 = 0 ->
        let d =
          match J.parse r.Loadgen.body with
          | Ok doc -> Option.bind (J.member "density" doc) J.to_float
          | Error _ -> None
        in
        checks := (fits.(f), x, t, Option.value ~default:nan d) :: !checks
      | _ -> ()
    end
    else incr failed
  in
  let t0 = Unix.gettimeofday () +. 0.05 in
  let backlog = ref 0 in
  Spans.with_span spans (Printf.sprintf "serve.rate.%g" rate) (fun () ->
      for i = 0 to n - 1 do
        let due = t0 +. due_rel.(i) in
        Loadgen.pump lg ~until:due ~on_reply;
        Loadgen.send lg ~conn:(i mod conns) ~due ~tag:i (render fits kinds.(i));
        late.(i) <- Float.max 0. (Unix.gettimeofday () -. due)
      done;
      backlog := Loadgen.outstanding lg;
      Loadgen.drain lg ~deadline:(Unix.gettimeofday () +. 30.) ~on_reply);
  let after = Common.scrape lg () in
  let answered a = Array.of_list (List.filter Float.is_finite (Array.to_list a)) in
  {
    rate;
    lat = answered lat;
    service = answered service;
    late;
    sent = n;
    failed = !failed;
    backlog = !backlog;
    span_s = !last_recv -. t0;
    before;
    after;
    checks = !checks;
    reply = !reply;
  }

(* Served densities must equal an in-process solve on the fit reply's
   parameters: same phi, same full-resolution solver, printed with
   round-trip precision. *)
let check_density (f, x, t, served) =
  let sol = Dl.Model.solve f.params ~phi:f.phi ~times:[| t |] in
  let want = Dl.Model.predict sol ~x ~t in
  Float.is_finite served && Float.abs (want -. served) <= 1e-12 *. Float.max 1. (Float.abs want)

let rate_name r = Printf.sprintf "%.0f" r

(* The generator has fallen behind its schedule when the typical
   request is handed to the socket well after its due time; such a run
   measures the generator, not the server.  (Single late requests are
   host hiccups: their delay is charged to the server's latency, which
   is timed from the due time.) *)
let max_late_p50_ms = 1.

(* One offered rate's windows, pooled. *)
type summary = {
  s_rate : float;
  p50_ms : float;
  p99_ms : float;
  achieved : float;  (* completed requests per second *)
  backlog : float;
  s_failed : int;
  samples : int;
}

let summarise phases rate =
  let ws = List.filter (fun (p : phase) -> p.rate = rate) phases |> Array.of_list in
  let lat = Array.concat (Array.to_list (Array.map (fun p -> p.lat) ws)) in
  let total f = Array.fold_left (fun acc p -> acc +. f p) 0. ws in
  {
    s_rate = rate;
    p50_ms = Common.ms (Stats.median lat);
    p99_ms = Common.pct_ms "predict" lat 0.99;
    achieved = float_of_int (Array.length lat) /. total (fun p -> p.span_s);
    backlog = Stats.median (Array.map (fun (p : phase) -> float_of_int p.backlog) ws);
    s_failed = Array.fold_left (fun acc p -> acc + p.failed) 0 ws;
    samples = Array.length lat;
  }

(* A rate is sustained when its p99 meets the limit, nothing failed and
   no more than the limit's worth of arrivals was still queued when the
   last request of a window fell due. *)
let sustained s =
  s.s_failed = 0 && s.p99_ms <= latency_limit_ms
  && s.backlog <= s.s_rate *. latency_limit_ms /. 1000.

(* Windows are never shorter than the lowest rate needs for a p99 with
   ten samples beyond it, whatever [seconds] asks for. *)
let measure lg fits ~seed ~seconds ~spans =
  let min_window = (float_of_int (Stats.min_samples 0.99) /. rates.(0)) +. 0.3 in
  let per = Float.max min_window (seconds /. float_of_int (windows * Array.length rates)) in
  List.concat_map
    (fun window ->
      Array.to_list
        (Array.map
           (fun rate -> run_phase lg fits ~seed ~rate ~window ~duration:(per -. 0.06) ~spans)
           rates))
    (List.init windows Fun.id)

let late_ms phases = Common.ms (Stats.median (Array.concat (List.map (fun p -> p.late) phases)))

(* The server always traces (Serve.Server.create turns Obs on), so
   untraced and traced runs alike measure a traced server; --trace 1
   adds the benchmark's own client-side spans and the layer probes. *)
let run ~seed ~seconds ~trace =
  let (child, lg, fits), setup_s =
    Common.setup_median (fun () -> setup ~seed)
      ~child:(fun (child, _, _) -> child.Common.pid)
      ~discard:(fun (child, lg, _) ->
        Loadgen.close lg;
        ignore (Common.stop_server child))
  in
  let spans = Spans.recorder ~enabled:trace in
  let cpu0 = Common.cpu_s child.Common.pid in
  let phases = measure lg fits ~seed ~seconds ~spans in
  let cpu = Common.cpu_s child.Common.pid -. cpu0 in
  let rss = Common.peak_rss_mb child.Common.pid in
  Loadgen.close lg;
  let clean = Common.stop_server child in
  let checks = List.concat_map (fun p -> List.map check_density p.checks) phases in
  let sent = List.fold_left (fun acc p -> acc + p.sent) 0 phases in
  let failed =
    List.fold_left (fun acc p -> acc + p.failed) 0 phases
    + List.length (List.filter not checks)
    + if clean then 0 else 1
  in
  let attempted = sent + List.length checks + 1 in
  let summaries = Array.map (summarise phases) rates in
  let late = late_ms phases in
  let invalid = late > max_late_p50_ms in
  let max_rps = Array.fold_left (fun acc s -> if sustained s then s.achieved else acc) 0. summaries in
  Common.notes
    (Array.to_list
       (Array.map
          (fun s ->
            ( Printf.sprintf "rate %s/s" (rate_name s.s_rate),
              Printf.sprintf
                "%d samples in %d windows, predict_p50_ms %.3f, predict_p99_ms %.3f, achieved %.0f/s, backlog %.0f, failed %d, %s"
                s.samples windows s.p50_ms s.p99_ms s.achieved s.backlog s.s_failed
                (if sustained s then "sustained" else "not sustained") ))
          summaries)
    @ [
        ("predict_max_rps", Printf.sprintf "%.0f/s (p99 <= %g ms)" max_rps latency_limit_ms);
        ("server cpu", Printf.sprintf "%.3f s for %d requests" cpu sent);
        ("checks", Printf.sprintf "%d densities checked, %d wrong" (List.length checks)
           (List.length (List.filter not checks)));
        ( "generator",
          Printf.sprintf "late p50 %.3f ms: %s" late
            (if invalid then "FELL BEHIND (run invalid)" else "on schedule") );
      ]);
  let e2e () =
    [
      Common.m "cpu_ms_per_op" "ms" (1e3 *. cpu /. float_of_int sent);
      Common.m "setup_s" "s" setup_s;
      Common.m "peak_rss_mb" "MB" rss;
    ]
  in
  let layers () =
    let phases_ba = List.map (fun p -> (p.before, p.after)) phases in
    let mean ?label name = Prom.mean_over ?label phases_ba name in
    let handler_ns = mean ~label:"predict" "serve.request_ns" in
    let client_ns = 1e9 *. Stats.mean (Array.concat (List.map (fun p -> p.service) phases)) in
    Spans.write_json spans (Filename.concat !Common.work_dir "spans-serve-predict.json");
    let reply =
      match List.find_map (fun p -> p.reply) phases with
      | Some body -> body
      | None -> failwith "no memo-hit /predict reply to probe"
    in
    [
      Common.m "numerics.scalar_solve_ms" "ms" (mean "pde.solve_ns" /. 1e6);
      Common.m "serve.handler_us.predict" "us" (handler_ns /. 1e3);
      Common.m "serve.outside_handler_us.predict" "us" ((client_ns -. handler_ns) /. 1e3);
      Common.m "serve.predict_miss_share" "ratio"
        (Prom.counter_over phases_ba "pde.solves" /. float_of_int sent);
      Common.m "http.parse_ns.predict" "ns"
        (Layers.parse_ns (render fits (Hit (0, 2.5, 3.))));
      Common.m "json.encode_ns.predict" "ns" (Layers.encode_ns reply);
    ]
  in
  {
    Common.metrics = (if trace then layers () else e2e ());
    attempted;
    failed = (failed + if invalid then 1 else 0);
  }

(* Dependency-free OTLP/HTTP JSON exporter.

   Maps the Obs registry onto OpenTelemetry's HTTP/JSON protocol
   (opentelemetry-proto, JSON mapping): completed span trees go to
   /v1/traces, Metrics.expose rows to /v1/metrics, and teed log
   records to /v1/logs.  Everything is hand-rolled on Unix sockets and
   the shared JSON codec in Obs — no outside dependencies.

   A background thread batches and flushes on a timer; sends retry
   with exponential backoff and drop (counted) on final failure, so a
   dead collector can never wedge or grow the instrumented process
   unboundedly. *)

(* --- configuration --- *)

type config = {
  endpoint : string; (* http://host:port[/base] *)
  service_name : string;
  flush_interval : float; (* seconds between background flushes *)
  max_batch : int; (* spans per POST *)
  max_buffer : int; (* queued spans/logs cap; overflow is dropped *)
  max_retries : int; (* additional attempts after the first *)
  backoff : float; (* initial retry delay, doubled per retry *)
  timeout : float; (* per-socket send/receive timeout *)
  sample_rate : float; (* head-sampling keep fraction, keyed on trace id *)
}

let default_config =
  {
    endpoint = "";
    service_name = "dlosn";
    flush_interval = 2.0;
    max_batch = 512;
    max_buffer = 4096;
    max_retries = 2;
    backoff = 0.1;
    timeout = 5.0;
    sample_rate = 1.0;
  }

let env_var = "DLOSN_OTLP"
let sample_env_var = "DLOSN_OTLP_SAMPLE"

(* --- trace-id-keyed head sampling --- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Deterministic all-in-or-all-out decision per trace: the last (up
   to) 12 hex chars of the trace id map to a point u in [0, 1), kept
   iff u < rate — so the keep set at a lower rate is a subset of the
   keep set at any higher rate (monotone), and every process looking
   at the same trace id reaches the same verdict.  Non-hex ids fall
   back to a [Hashtbl.hash]-derived point with the same properties. *)
let sampled ~rate trace_id =
  if rate >= 1.0 then true
  else if not (rate > 0.0) then false (* 0, negative or NaN: drop all *)
  else begin
    let n = String.length trace_id in
    let take = Stdlib.min 12 n in
    let rec hex_tail i acc =
      if i >= n then Some acc
      else
        let v = hex_val trace_id.[i] in
        if v < 0 then None else hex_tail (i + 1) ((acc lsl 4) lor v)
    in
    let u =
      match if take = 0 then None else hex_tail (n - take) 0 with
      | Some key -> float_of_int key /. float_of_int (1 lsl (4 * take))
      | None ->
        float_of_int (Hashtbl.hash trace_id land 0x3FFFFFFF)
        /. 1073741824.
    in
    u < rate
  end

(* --- endpoint parsing --- *)

type target = { host : string; port : int; base : string }

let parse_endpoint endpoint =
  let fail msg =
    invalid_arg (Printf.sprintf "Otlp: bad endpoint %S: %s" endpoint msg)
  in
  let rest =
    let prefix = "http://" in
    let plen = String.length prefix in
    if
      String.length endpoint > plen
      && String.lowercase_ascii (String.sub endpoint 0 plen) = prefix
    then String.sub endpoint plen (String.length endpoint - plen)
    else if String.length endpoint >= 8
            && String.lowercase_ascii (String.sub endpoint 0 8) = "https://"
    then fail "TLS is not supported (use a local collector over http)"
    else endpoint
  in
  let hostport, base =
    match String.index_opt rest '/' with
    | None -> (rest, "")
    | Some i ->
      let b = String.sub rest i (String.length rest - i) in
      ( String.sub rest 0 i,
        if b = "/" then "" else if b.[String.length b - 1] = '/' then
          String.sub b 0 (String.length b - 1)
        else b )
  in
  match String.index_opt hostport ':' with
  | None -> if hostport = "" then fail "empty host" else
      { host = hostport; port = 4318; base }
  | Some i ->
    let host = String.sub hostport 0 i in
    let port_s = String.sub hostport (i + 1) (String.length hostport - i - 1) in
    (match int_of_string_opt port_s with
    | Some p when p > 0 && p < 65536 ->
      if host = "" then fail "empty host" else { host; port = p; base }
    | _ -> fail "invalid port")

(* --- OTLP JSON payload builders (pure; golden-tested) --- *)

(* OTLP AnyValue. Int64 values are JSON strings per the proto3 JSON
   mapping; doubles use the shared codec (non-finite -> null). *)
let add_any_value buf (v : Obs.Log.value) =
  match v with
  | Obs.Log.String s ->
    Buffer.add_string buf "{\"stringValue\":";
    Obs.Json.add_string buf s;
    Buffer.add_char buf '}'
  | Obs.Log.Int i ->
    Buffer.add_string buf "{\"intValue\":\"";
    Buffer.add_string buf (string_of_int i);
    Buffer.add_string buf "\"}"
  | Obs.Log.Float f ->
    Buffer.add_string buf "{\"doubleValue\":";
    Buffer.add_string buf (Obs.Json.number f);
    Buffer.add_char buf '}'
  | Obs.Log.Bool b ->
    Buffer.add_string buf "{\"boolValue\":";
    Buffer.add_string buf (string_of_bool b);
    Buffer.add_char buf '}'

let add_attributes buf (fields : Obs.Log.field list) =
  Buffer.add_char buf '[';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"key\":";
      Obs.Json.add_string buf k;
      Buffer.add_string buf ",\"value\":";
      add_any_value buf v;
      Buffer.add_char buf '}')
    fields;
  Buffer.add_char buf ']'

(* uint64 nanosecond timestamps are JSON strings per the proto3 JSON
   mapping ("timeUnixNano":"1544712660000000000"). *)
let add_time buf key ns =
  Buffer.add_char buf '"';
  Buffer.add_string buf key;
  Buffer.add_string buf "\":\"";
  Buffer.add_string buf (string_of_int ns);
  Buffer.add_char buf '"'

let add_resource buf ~service =
  Buffer.add_string buf
    "\"resource\":{\"attributes\":[{\"key\":\"service.name\",\"value\":{\"stringValue\":";
  Obs.Json.add_string buf service;
  Buffer.add_string buf "}}]}"

let scope_json = "\"scope\":{\"name\":\"dlosn.obs\",\"version\":\"1\"}"

(* OTLP spans are a flat list linked by parentSpanId; flatten each Obs
   tree in pre-order. A root with no trace id gets a fresh one so the
   export is always well-formed. *)
let rec add_span_flat buf ~first ~trace_id ~parent (s : Obs.Span.t) =
  if not !first then Buffer.add_char buf ',';
  first := false;
  Buffer.add_string buf "{\"traceId\":";
  Obs.Json.add_string buf trace_id;
  Buffer.add_string buf ",\"spanId\":";
  Obs.Json.add_string buf s.Obs.Span.span_id;
  if parent <> "" then begin
    Buffer.add_string buf ",\"parentSpanId\":";
    Obs.Json.add_string buf parent
  end;
  Buffer.add_string buf ",\"name\":";
  Obs.Json.add_string buf s.Obs.Span.name;
  Buffer.add_string buf ",\"kind\":1,";
  add_time buf "startTimeUnixNano" s.Obs.Span.start_ns;
  Buffer.add_char buf ',';
  add_time buf "endTimeUnixNano" s.Obs.Span.end_ns;
  Buffer.add_string buf ",\"attributes\":";
  add_attributes buf s.Obs.Span.attrs;
  Buffer.add_string buf ",\"status\":{}}";
  List.iter
    (add_span_flat buf ~first ~trace_id ~parent:s.Obs.Span.span_id)
    s.Obs.Span.children

let spans_body ?(service = "dlosn") (spans : Obs.Span.t list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"resourceSpans\":[{";
  add_resource buf ~service;
  Buffer.add_string buf ",\"scopeSpans\":[{";
  Buffer.add_string buf scope_json;
  Buffer.add_string buf ",\"spans\":[";
  let first = ref true in
  List.iter
    (fun (s : Obs.Span.t) ->
      let trace_id =
        if s.Obs.Span.trace_id <> "" then s.Obs.Span.trace_id
        else Obs.Span.gen_trace_id ()
      in
      add_span_flat buf ~first ~trace_id ~parent:"" s)
    spans;
  Buffer.add_string buf "]}]}]}";
  Buffer.contents buf

let metrics_body ?(service = "dlosn") ~now_ns
    (rows : Obs.Metrics.exposition_row list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"resourceMetrics\":[{";
  add_resource buf ~service;
  Buffer.add_string buf ",\"scopeMetrics\":[{";
  Buffer.add_string buf scope_json;
  Buffer.add_string buf ",\"metrics\":[";
  let first = ref true in
  let label_attrs = function
    | None -> []
    | Some l -> [ Obs.Log.str "label" l ]
  in
  List.iter
    (fun (row : Obs.Metrics.exposition_row) ->
      let open Obs.Metrics in
      let emit_header () =
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf "{\"name\":";
        Obs.Json.add_string buf row.row_name
      in
      let datapoint_prefix () =
        add_time buf "timeUnixNano" now_ns;
        Buffer.add_string buf ",\"attributes\":";
        add_attributes buf (label_attrs row.row_label)
      in
      match row.row_sample with
      | Counter_sample v ->
        emit_header ();
        Buffer.add_string buf
          ",\"sum\":{\"aggregationTemporality\":2,\"isMonotonic\":true,\"dataPoints\":[{";
        datapoint_prefix ();
        Buffer.add_string buf ",\"asInt\":\"";
        Buffer.add_string buf (string_of_int v);
        Buffer.add_string buf "\"}]}}"
      | Gauge_sample None -> () (* never set: nothing to export *)
      | Gauge_sample (Some v) ->
        emit_header ();
        Buffer.add_string buf ",\"gauge\":{\"dataPoints\":[{";
        datapoint_prefix ();
        Buffer.add_string buf ",\"asDouble\":";
        Buffer.add_string buf (Obs.Json.number v);
        Buffer.add_string buf "}]}}"
      | Histogram_sample h ->
        emit_header ();
        Buffer.add_string buf
          ",\"histogram\":{\"aggregationTemporality\":2,\"dataPoints\":[{";
        datapoint_prefix ();
        Buffer.add_string buf ",\"count\":\"";
        Buffer.add_string buf (string_of_int h.h_count);
        Buffer.add_string buf "\",\"sum\":";
        Buffer.add_string buf (Obs.Json.number h.h_sum);
        (* h_cumulative is Prometheus-style cumulative with a final
           +inf bound; OTLP wants per-bucket counts and explicit
           finite bounds only. *)
        Buffer.add_string buf ",\"bucketCounts\":[";
        let prev = ref 0 in
        Array.iteri
          (fun i (_, c) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (string_of_int (c - !prev));
            Buffer.add_char buf '"';
            prev := c)
          h.h_cumulative;
        Buffer.add_string buf "],\"explicitBounds\":[";
        let nfinite = ref 0 in
        Array.iter
          (fun (le, _) ->
            if Float.is_finite le then begin
              if !nfinite > 0 then Buffer.add_char buf ',';
              nfinite := !nfinite + 1;
              Buffer.add_string buf (Obs.Json.number le)
            end)
          h.h_cumulative;
        Buffer.add_string buf "]}]}}")
    rows;
  Buffer.add_string buf "]}]}]}";
  Buffer.contents buf

let severity_number (l : Obs.Level.t) =
  (* OTLP severity numbers: DEBUG=5, INFO=9, WARN=13, ERROR=17 *)
  match l with
  | Obs.Level.Debug -> 5
  | Obs.Level.Info -> 9
  | Obs.Level.Warn -> 13
  | Obs.Level.Error -> 17

let logs_body ?(service = "dlosn") (records : Obs.Log.record list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"resourceLogs\":[{";
  add_resource buf ~service;
  Buffer.add_string buf ",\"scopeLogs\":[{";
  Buffer.add_string buf scope_json;
  Buffer.add_string buf ",\"logRecords\":[";
  List.iteri
    (fun i (r : Obs.Log.record) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '{';
      add_time buf "timeUnixNano" (int_of_float (r.Obs.Log.r_ts *. 1e9));
      Buffer.add_string buf ",\"severityNumber\":";
      Buffer.add_string buf (string_of_int (severity_number r.Obs.Log.r_level));
      Buffer.add_string buf ",\"severityText\":";
      Obs.Json.add_string buf
        (String.uppercase_ascii (Obs.Level.to_string r.Obs.Log.r_level));
      Buffer.add_string buf ",\"body\":{\"stringValue\":";
      Obs.Json.add_string buf r.Obs.Log.r_msg;
      Buffer.add_string buf "},\"attributes\":";
      add_attributes buf r.Obs.Log.r_fields;
      (match r.Obs.Log.r_trace_id with
      | Some tid when String.length tid = 32 ->
        Buffer.add_string buf ",\"traceId\":";
        Obs.Json.add_string buf tid
      | _ -> ());
      Buffer.add_char buf '}')
    records;
  Buffer.add_string buf "]}]}]}";
  Buffer.contents buf

(* --- minimal HTTP/1.1 POST over a Unix socket --- *)

let resolve host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> raise Not_found
    | h -> h.Unix.h_addr_list.(0))

let post ~(target : target) ~timeout ~path ~body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
      Unix.connect fd (Unix.ADDR_INET (resolve target.host, target.port));
      let payload =
        Printf.sprintf
          "POST %s%s HTTP/1.1\r\n\
           Host: %s:%d\r\n\
           Content-Type: application/json\r\n\
           Content-Length: %d\r\n\
           Connection: close\r\n\
           \r\n\
           %s"
          target.base path target.host target.port (String.length body) body
      in
      let n = String.length payload in
      let written = ref 0 in
      while !written < n do
        written :=
          !written
          + Unix.write_substring fd payload !written (n - !written)
      done;
      (* Read just enough of the status line to learn the code. *)
      let buf = Bytes.create 512 in
      let got = Unix.read fd buf 0 512 in
      if got < 12 then Error "short response"
      else
        let line = Bytes.sub_string buf 0 got in
        match String.index_opt line ' ' with
        | None -> Error "malformed status line"
        | Some i -> (
          let code_s =
            String.sub line (i + 1) (Stdlib.min 3 (got - i - 1))
          in
          match int_of_string_opt code_s with
          | Some code when code >= 200 && code < 300 -> Ok code
          | Some code -> Error (Printf.sprintf "HTTP %d" code)
          | None -> Error "malformed status code"))

(* --- exporter state --- *)

type stats = {
  sent_posts : int;
  failed_posts : int;
  dropped : int; (* spans + log records lost to buffer overflow *)
}

type t = {
  cfg : config;
  target : target;
  mutex : Mutex.t; (* guards the queues and counters below *)
  send_mutex : Mutex.t; (* serialises drain_and_send callers *)
  mutable q_spans : Obs.Span.t list; (* newest first *)
  mutable n_spans : int;
  mutable q_logs : Obs.Log.record list; (* newest first *)
  mutable n_logs : int;
  mutable st : stats;
  mutable stop : bool;
  metrics_provider : (unit -> Obs.Metrics.exposition_row list) option;
  mutable span_sub : Obs.Span.subscription option;
  mutable log_tee : bool;
  mutable thread : Thread.t option;
}

let create ?(config = default_config) ?metrics_provider ?endpoint () =
  let endpoint =
    match endpoint with Some e -> e | None -> config.endpoint
  in
  if not (config.sample_rate >= 0. && config.sample_rate <= 1.) then
    invalid_arg
      (Printf.sprintf "Otlp: sample rate %g outside [0, 1]"
         config.sample_rate);
  let target = parse_endpoint endpoint in
  let t =
    {
      cfg = { config with endpoint };
      target;
      mutex = Mutex.create ();
      send_mutex = Mutex.create ();
      q_spans = [];
      n_spans = 0;
      q_logs = [];
      n_logs = 0;
      st = { sent_posts = 0; failed_posts = 0; dropped = 0 };
      stop = false;
      metrics_provider;
      span_sub = None;
      log_tee = false;
      thread = None;
    }
  in
  t

let stats t =
  Mutex.lock t.mutex;
  let s = t.st in
  Mutex.unlock t.mutex;
  s

let enqueue_span t span =
  Mutex.lock t.mutex;
  if t.n_spans >= t.cfg.max_buffer then
    t.st <- { t.st with dropped = t.st.dropped + 1 }
  else begin
    t.q_spans <- span :: t.q_spans;
    t.n_spans <- t.n_spans + 1
  end;
  Mutex.unlock t.mutex

let enqueue_log t record =
  Mutex.lock t.mutex;
  if t.n_logs >= t.cfg.max_buffer then
    t.st <- { t.st with dropped = t.st.dropped + 1 }
  else begin
    t.q_logs <- record :: t.q_logs;
    t.n_logs <- t.n_logs + 1
  end;
  Mutex.unlock t.mutex

(* Export failures are logged at warn with an "otlp." prefix; the log
   tee skips them so a dead collector cannot feed the exporter its own
   error reports forever. *)
let own_record (r : Obs.Log.record) =
  String.length r.Obs.Log.r_msg >= 5
  && String.sub r.Obs.Log.r_msg 0 5 = "otlp."

let post_with_retry t ~path ~body =
  let attempt_once () =
    match post ~target:t.target ~timeout:t.cfg.timeout ~path ~body with
    | Ok _ -> true
    | Error _ -> false
    | exception _ -> false
  in
  let rec go attempt delay =
    if attempt_once () then begin
      Mutex.lock t.mutex;
      t.st <- { t.st with sent_posts = t.st.sent_posts + 1 };
      Mutex.unlock t.mutex;
      true
    end
    else if attempt >= t.cfg.max_retries then begin
      Mutex.lock t.mutex;
      t.st <- { t.st with failed_posts = t.st.failed_posts + 1 };
      Mutex.unlock t.mutex;
      Obs.Log.warn "otlp.post_failed"
        ~fields:(fun () ->
          [
            Obs.Log.str "endpoint" t.cfg.endpoint;
            Obs.Log.str "path" path;
            Obs.Log.int "attempts" (attempt + 1);
          ]);
      false
    end
    else begin
      Thread.delay delay;
      go (attempt + 1) (delay *. 2.)
    end
  in
  go 0 t.cfg.backoff

let rec take n = function
  | [] -> ([], [])
  | l when n <= 0 -> ([], l)
  | x :: rest ->
    let taken, left = take (n - 1) rest in
    (x :: taken, left)

(* Drain the queues and POST everything; runs on the caller's thread,
   serialised so the background flusher and explicit flush () never
   interleave sends. *)
let drain_and_send t =
  Mutex.lock t.send_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.send_mutex)
    (fun () ->
      let spans, logs =
        Mutex.lock t.mutex;
        let spans = List.rev t.q_spans and logs = List.rev t.q_logs in
        t.q_spans <- [];
        t.n_spans <- 0;
        t.q_logs <- [];
        t.n_logs <- 0;
        Mutex.unlock t.mutex;
        (spans, logs)
      in
      let rec send_span_batches = function
        | [] -> ()
        | spans ->
          let batch, rest = take t.cfg.max_batch spans in
          ignore
            (post_with_retry t ~path:"/v1/traces"
               ~body:(spans_body ~service:t.cfg.service_name batch));
          send_span_batches rest
      in
      send_span_batches spans;
      if logs <> [] then
        ignore
          (post_with_retry t ~path:"/v1/logs"
             ~body:(logs_body ~service:t.cfg.service_name logs));
      match t.metrics_provider with
      | None -> ()
      | Some provider -> (
        match provider () with
        | [] -> ()
        | rows ->
          ignore
            (post_with_retry t ~path:"/v1/metrics"
               ~body:
                 (metrics_body ~service:t.cfg.service_name
                    ~now_ns:(Obs.now_ns ()) rows))
        | exception _ -> ()))

let flush t = drain_and_send t

let flusher_loop t =
  let tick = 0.05 in
  let rec wait remaining =
    if t.stop || remaining <= 0. then ()
    else begin
      Thread.delay (Stdlib.min tick remaining);
      wait (remaining -. tick)
    end
  in
  while not t.stop do
    wait t.cfg.flush_interval;
    if not t.stop then drain_and_send t
  done

(* --- wiring into Obs --- *)

(* The head-sampling filter: spans and log records that carry a trace
   id are kept iff their trace is sampled, so a trace exports either
   completely or not at all across both signals.  Traceless telemetry
   (spans recorded outside any trace context, plain log records) is
   always kept — there is no key to decide by, and dropping it would
   hide process-level events like startup and shutdown. *)
let keep_trace t trace_id =
  trace_id = "" || sampled ~rate:t.cfg.sample_rate trace_id

let observe_spans t =
  match t.span_sub with
  | Some _ -> ()
  | None ->
    t.span_sub <-
      Some
        (Obs.Span.subscribe (fun ev ->
             if
               ev.Obs.Span.root
               && keep_trace t ev.Obs.Span.span.Obs.Span.trace_id
             then enqueue_span t ev.Obs.Span.span))

let tee_logs t =
  if not t.log_tee then begin
    t.log_tee <- true;
    Obs.Log.set_tee
      (Some
         (fun r ->
           let kept =
             match r.Obs.Log.r_trace_id with
             | None -> true
             | Some tid -> keep_trace t tid
           in
           if kept && not (own_record r) then enqueue_log t r))
  end

let start t =
  match t.thread with
  | Some _ -> ()
  | None -> t.thread <- Some (Thread.create flusher_loop t)

let shutdown t =
  (match t.span_sub with
  | Some sub ->
    Obs.Span.unsubscribe sub;
    t.span_sub <- None
  | None -> ());
  if t.log_tee then begin
    Obs.Log.set_tee None;
    t.log_tee <- false
  end;
  t.stop <- true;
  (match t.thread with
  | Some th ->
    Thread.join th;
    t.thread <- None
  | None -> ());
  drain_and_send t

(** Observability substrate: structured logging, a metrics registry and
    span tracing, shared by every layer of the DL pipeline.

    Everything is disabled by default and gated on a single atomic flag,
    so the instrumented hot paths cost one load + branch when off; log
    field lists and span attributes are closures that are never
    evaluated unless a record is actually emitted.  Observability is
    purely additive: numeric results are bit-identical with it on or
    off (see [test/test_obs.ml]).

    Metric recording is domain-safe without locks: each worker domain
    records into a private {!Shard} installed by [Parallel.Pool], and
    shards are merged on the calling domain, in worker-index order, at
    pool teardown — totals are exact, deterministic, and never racy. *)

val enabled : unit -> bool
(** Global observability switch (a single atomic load). *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Clear the calling domain's metric values and recorded spans.
    Metric {e definitions} (names, kinds) are global and persist. *)

val now_ns : unit -> int
(** Wall-clock in integer nanoseconds (from [Unix.gettimeofday]).

    {b Clock caveat}: this is wall time, not a monotonic clock — NTP
    adjustments can step it backwards (or forwards) between two reads.
    Span durations are therefore clamped at 0 rather than ever going
    negative, and epoch timestamps on spans are best-effort. *)

module Json = Json
(** The JSON codec ({!Json}): the only JSON string escaper and number
    renderer, used by the log sink, the metrics dump, the OTLP exporter
    and every layer above. *)

val env_var : string
(** ["DLOSN_LOG"] — comma-separated tokens read at module init: a level
    name enables logging at that level, ["json"]/["human"] select the
    sink, and setting the variable at all flips {!enabled} on.
    Example: [DLOSN_LOG=debug,json]. *)

(** Severity levels, ordered [Debug < Info < Warn < Error]. *)
module Level : sig
  type t = Debug | Info | Warn | Error

  val to_int : t -> int
  val to_string : t -> string

  val of_string : string -> (t, string) result
  (** Case-insensitive; accepts ["warning"] for [Warn].  The error
      message lists the valid names. *)

  val valid_names : string
  (** ["debug|info|warn|error"], for usage errors. *)
end

(** Structured, line-oriented logging with typed key/value fields. *)
module Log : sig
  type value = String of string | Int of int | Float of float | Bool of bool
  type field = string * value

  val str : string -> string -> field
  val int : string -> int -> field
  val float : string -> float -> field
  val bool : string -> bool -> field

  (** [Human] is [[level] msg k=v ...]; [Json] is one JSON object per
      line: [{"ts":…,"level":…,"msg":…,<fields>}] (non-finite floats
      become [null]). *)
  type sink = Human | Json

  val set_sink : sink -> unit
  val sink : unit -> sink

  val set_level : Level.t option -> unit
  (** Minimum level to emit; [None] (the default) silences all logs
      even when {!Obs.enabled} is on. *)

  val level : unit -> Level.t option

  val set_out : (string -> unit) -> unit
  (** Redirect emitted lines (default: [prerr_endline]).  Each record
      is a single call, so concurrent emitters cannot interleave
      within a line.  Used by tests and [--log-*] plumbing. *)

  val would_log : Level.t -> bool
  (** True iff a record at this level would be emitted now. *)

  val log : Level.t -> ?fields:(unit -> field list) -> string -> unit
  (** [fields] is only evaluated when the record is emitted. *)

  val debug : ?fields:(unit -> field list) -> string -> unit
  val info : ?fields:(unit -> field list) -> string -> unit
  val warn : ?fields:(unit -> field list) -> string -> unit
  val error : ?fields:(unit -> field list) -> string -> unit

  (** A fully-evaluated log record, as handed to the tee hook.
      [r_trace_id] is the current context's trace id (see
      {!Span.set_trace_id}); emitted records also carry it as a
      [trace_id] JSON field / [trace=] human token. *)
  type record = {
    r_ts : float;  (** epoch seconds *)
    r_level : Level.t;
    r_msg : string;
    r_fields : field list;
    r_trace_id : string option;
  }

  val set_tee : (record -> unit) option -> unit
  (** Install (or clear) a structured tap called after the textual sink
      for every emitted record.  Only records that pass the level
      filter reach the tee.  Exceptions it raises are swallowed.  Used
      by the OTLP exporter. *)
end

(** Named counters, gauges and fixed-bucket histograms.

    Definitions are global and append-only; registering the same
    [(name, label)] twice returns the existing handle (and raises
    [Invalid_argument] on a kind mismatch).  Values live in the calling
    domain's context; readers see the merged totals after pool
    teardown.  The catalogue of names used by the pipeline is in
    [docs/OBSERVABILITY.md]. *)
module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : ?label:string -> string -> counter
  val gauge : ?label:string -> string -> gauge

  val histogram : ?label:string -> ?buckets:float array -> string -> histogram
  (** [buckets] are upper bounds, strictly increasing; an implicit
      overflow bucket is appended.  Default: exponential nanosecond
      buckets 1 µs … 10 s. *)

  val default_buckets : float array

  val incr : ?by:int -> counter -> unit
  val set : gauge -> float -> unit
  val observe : histogram -> float -> unit

  val counter_value : counter -> int
  val gauge_value : gauge -> float option
  val histogram_count : histogram -> int
  val histogram_sum : histogram -> float

  val schema_version : string
  (** ["dlosn-metrics/1"]. *)

  val to_json_string : unit -> string
  (** Dump every registered metric, in registration order, as a JSON
      document with [schema], [counters], [gauges] and [histograms]
      arrays (schema {!schema_version}). *)

  val write_json : path:string -> unit

  (** {2 Exposition}

      A read-only snapshot of every registered metric as seen from the
      calling domain's context, for exporters (the [/metrics] endpoint
      in [lib/serve] renders it as Prometheus text format). *)

  type histogram_snapshot = {
    h_count : int;
    h_sum : float;
    h_cumulative : (float * int) array;
        (** [(upper bound, cumulative count)] pairs, Prometheus-style:
            each count includes every observation [<=] the bound; the
            final bound is [infinity] (the overflow bucket), so its
            count equals [h_count]. *)
  }

  type sample =
    | Counter_sample of int
    | Gauge_sample of float option  (** [None] when never set *)
    | Histogram_sample of histogram_snapshot

  type exposition_row = {
    row_name : string;
    row_label : string option;
    row_sample : sample;
  }

  val expose : unit -> exposition_row list
  (** Every registered metric, in registration order, with the calling
      domain's current values (zero / [None] / empty when never
      recorded here). *)

  val to_prometheus_string : ?namespace:string -> unit -> string
  (** Render {!expose} in the Prometheus text exposition format
      (version 0.0.4).  Metric names are prefixed with
      [namespace ^ "_"] (default ["dlosn"]) and sanitised to
      [[a-zA-Z0-9_]]; counters gain the conventional [_total] suffix;
      registry labels are emitted as a [label="..."] Prometheus label;
      histograms expand to [_bucket{le=...}] series plus [_sum] and
      [_count].  Families sharing a name emit one [# TYPE] line;
      never-set gauges are omitted. *)

  val reset : unit -> unit
  (** Clear values on the calling domain; definitions persist. *)
end

(** Nested timed scopes forming a duration tree.

    Every span carries epoch timestamps, a unique span id, and the
    trace id that was current when it opened, so completed spans can be
    exported (OTLP), rendered as flame graphs, or streamed to live
    subscribers.  Timestamps come from {!now_ns} — see the clock caveat
    there: durations are clamped at 0 if the wall clock steps
    backwards mid-span. *)
module Span : sig
  type t = {
    name : string;
    attrs : Log.field list;
    dur_ns : int;  (** [end_ns - start_ns], clamped at 0 *)
    children : t list;
    span_id : string;  (** 16 lowercase hex chars, unique per process *)
    trace_id : string;  (** 32 hex chars; [""] outside a trace *)
    start_ns : int;  (** epoch nanoseconds at open *)
    end_ns : int;  (** epoch nanoseconds at close; [>= start_ns] *)
  }

  val with_span : string -> ?attrs:(unit -> Log.field list) -> (unit -> 'a) -> 'a
  (** Run the thunk inside a timed span (exceptions still close it).
      When {!Obs.enabled} is off this is exactly the thunk — no
      timing, no allocation.  [attrs] is evaluated at span open. *)

  val add_attr : string -> Log.value -> unit
  (** Attach a field to the innermost open span (no-op outside one). *)

  val roots : unit -> t list
  (** Completed top-level spans on this domain, oldest first. *)

  val reset : unit -> unit
  (** Drop this context's recorded spans and clear its trace id. *)

  (** {2 Trace ids}

      A trace id is request-scoped: it lives on the recording context,
      is stamped into every span opened (and every log record emitted)
      while set, and is managed explicitly by the request boundary
      ([lib/serve] sets one per connection). *)

  val gen_trace_id : unit -> string
  (** Fresh 32-hex-char trace id, unique within the process. *)

  val gen_span_id : unit -> string
  (** Fresh 16-hex-char span id (exporters needing synthetic parents). *)

  val set_trace_id : string option -> unit
  (** Set or clear the calling context's trace id. *)

  val trace_id : unit -> string option

  val with_trace_id : string -> (unit -> 'a) -> 'a
  (** Run the thunk with the given trace id, restoring the previous
      one afterwards (exception-safe). *)

  (** {2 Streaming observer}

      Span closes become events: subscribers fire synchronously on the
      recording domain, children strictly before their parents (close
      order).  [root] is true when the closing span has no parent in
      its context.  Subscriber exceptions are swallowed; with no
      subscribers the cost is one atomic load per close. *)

  type event = { span : t; root : bool }
  type subscription

  val subscribe : (event -> unit) -> subscription
  (** Register a global observer for every span close (on any domain —
      the callback must be thread-safe). *)

  val unsubscribe : subscription -> unit

  (** {2 Folded stacks (flame output)}

      The folded format consumed by flamegraph.pl and speedscope:
      one [frame;frame;frame weight] line per distinct stack, weight =
      self time in nanoseconds (duration minus children, clamped at 0).
      Frames named [story]/[model]/[route] attrs are decorated as
      [name[story=17]] so per-story batch fits stay distinguishable. *)

  val fold_stacks : t list -> (string * int) list
  (** [(stack, self_ns)] rows in pre-order of first visit; repeated
      stacks merge by summing. *)

  val to_folded : t list -> string
  (** Render {!fold_stacks} as folded-stack text, one line per row. *)

  (** One row per distinct slash-joined span path, parents before
      children (pre-order of first visit). *)
  type agg = { path : string; count : int; total_ns : int }

  val summary : unit -> agg list
  val pp_summary : Format.formatter -> unit -> unit

  val log_summary : unit -> unit
  (** Emit the summary as info-level ["span.summary"] log records. *)
end

(** Worker-domain recording contexts for [Parallel.Pool].  Not part of
    the instrumentation API — pool internals only. *)
module Shard : sig
  type t

  val create : unit -> t

  val with_shard : t -> (unit -> 'a) -> 'a
  (** Make [t] the calling domain's recording context for the thunk,
      restoring the previous context afterwards (exception-safe). *)

  val merge : t -> unit
  (** Fold [t]'s metric values and completed spans into the calling
      domain's current context (counters and histograms add; gauges
      last-merged-wins; spans attach under the innermost open span),
      then empty [t].  Call once per shard, in worker-index order, for
      deterministic totals. *)

  val span_roots : t -> Span.t list
  (** Completed top-level spans recorded in [t], oldest first. *)

  val take_span_roots : t -> Span.t list
  (** {!span_roots}, then drop them from [t] — so a later {!merge}
      carries only metric values.  [lib/serve] uses this to capture
      each request's trace into its ring buffer without growing the
      server aggregate's span list unboundedly. *)
end

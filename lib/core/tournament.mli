(** Tournament-scale model comparison: fit every requested registry
    model on the same story set and rank them on held-out accuracy.

    The paper's claim that the diffusive logistic PDE beats simpler
    growth models is only demonstrable head-to-head; this module is the
    harness.  Each (model, story) pair is an independent work item —
    fit on the calibration hours, evaluate on the later observed cells
    — distributed over a {!Parallel.Pool}.  The per-item rng seed is
    derived deterministically from the tournament seed, the model name
    and the story index, and accuracy aggregation runs in index order,
    so {e every accuracy field of the leaderboard is bit-identical for
    any pool size} (only the wall-clock latency fields vary run to
    run).

    Results also land in [Obs] metrics ([tournament.*], labelled by
    model name) and serialise to the versioned leaderboard JSON
    embedded by the bench harness ({!to_json},
    schema {!schema_version}). *)

type entry = {
  e_model : string;
  e_ok : bool;  (** at least one story fitted successfully *)
  e_error : string option;  (** first failure message, if any story failed *)
  e_mean_rel_err : float;
      (** mean relative error over held-out cells, averaged over the
          successfully fitted stories ([nan] if none) *)
  e_training_error : float;
      (** mean training error over the successfully fitted stories *)
  e_per_story : float array;
      (** held-out error per story, input order ([nan] on failure) *)
  e_fit_ms : float;      (** total fitting wall time, milliseconds *)
  e_predict_ms : float;  (** total held-out evaluation wall time *)
  e_evaluations : int;   (** total solver/objective evaluations *)
}

type leaderboard = {
  lb_models : string array;      (** requested models, input order *)
  lb_stories : string array;     (** story labels, input order *)
  lb_fit_times : float array;
  lb_seed : int;
  lb_jobs : int;                 (** pool size the run used *)
  lb_entries : entry array;
      (** sorted: successful models by ascending held-out error, then
          failed models *)
}

val default_models : string list
(** The registry models a tournament runs when none are named: every
    built-in except ["network"], which needs graph context
    ({!Predictor.graph_ctx}) that plain density observations cannot
    provide. *)

val run :
  ?pool:Parallel.Pool.t -> ?fit_times:float array -> ?seed:int ->
  ?models:string list ->
  (string * Socialnet.Density.t) list -> leaderboard
(** [run stories] fits each model of [models] (default
    {!default_models}) on every labelled observation.  Held-out cells
    are the observed times strictly later than the last calibration
    hour; stories without such cells contribute [nan].  Defaults:
    sequential pool, [fit_times = [2; 3]], [seed = 42].
    @raise Invalid_argument on an unregistered model name or an empty
    story list ([Tournament.run: …] form). *)

val synthetic_stories :
  ?n:int -> ?seed:int -> unit -> (string * Socialnet.Density.t) list
(** [n] (default 4) synthetic cascades, deterministic in [seed]
    (default 7): each is a DL-model solve under randomly drawn
    parameters sampled at distances 1..5 and hours 1..6, with small
    multiplicative observation noise — a shared ground-truth story set
    cheap enough for tests and CI smoke runs. *)

val schema_version : string
(** ["dlosn-tournament/1"]. *)

val to_json : leaderboard -> Obs.Json.t
(** The leaderboard as a JSON value: [{"schema": …, "seed": …,
    "jobs": …, "fit_times": […], "stories": […], "leaderboard":
    [{"model": …, "ok": …, "error": …, "mean_rel_err": …,
    "training_error": …, "per_story": […], "fit_ms": …,
    "predict_ms": …, "evaluations": …}, …]}].  Floats print with
    {!Obs.Json.number}, so each reads back bit for bit; non-finite
    floats render as [null]. *)

val json_string : leaderboard -> string
(** {!to_json} rendered on one line, newline-terminated. *)

val pp : Format.formatter -> leaderboard -> unit
(** Fixed-width leaderboard table (rank, model, held-out error,
    training error, fit time, evaluations). *)

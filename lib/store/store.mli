(** Persistent model store: durable fit checkpoints on disk.

    A store directory holds two files — an atomically-replaced
    {!Snapshot} ([snapshot.bin]) and an append-only {!Wal} ([wal.log]).
    Opening a store loads the snapshot, replays the WAL over it
    (last-wins per record id), truncates any torn WAL tail, and keeps
    the whole record set in memory; {!append} makes a new fit durable
    immediately (framed, CRC'd, fsynced); {!gc} folds the WAL into a
    fresh snapshot.  Recovery never fails on bit rot or a torn tail:
    the valid prefix is kept and a [store.recovered_partial] warning is
    logged (with the [store.recovered_partial] counter bumped).

    All operations on a {!t} are thread-safe (a single internal lock);
    the serving layer appends from worker domains.

    Format spec and recovery semantics: [docs/PERSISTENCE.md]. *)

module Format = Format
module Wal = Wal
module Snapshot = Snapshot

type t

type info = {
  snapshot_records : int;  (** records loaded from the snapshot *)
  wal_records : int;  (** records replayed from the WAL *)
  dropped_bytes : int;  (** torn / corrupt bytes discarded on open *)
  corruption : string option;  (** first corruption encountered, if any *)
}

val open_ : ?fsync:bool -> ?source:string -> string -> t
(** Open (creating the directory and files as needed) and recover.
    [fsync] (default true) makes every append and compaction sync;
    turn it off only for benchmarking.  [source] (default ["store"])
    labels records appended through {!record_of_fit} defaults.
    @raise Unix.Unix_error when the directory cannot be created or the
    files cannot be opened — {e not} on corrupt contents, which
    degrade to partial recovery. *)

val load : string -> Format.record list * info
(** Read-only recovery: the records a fresh {!open_} would see,
    without holding the WAL open or truncating its tail.  Safe to run
    against a store another process is writing.  A missing directory
    loads as empty. *)

val dir : t -> string
val info : t -> info
(** Recovery statistics from open time. *)

val records : t -> Format.record list
(** Live records, oldest first (duplicate ids collapsed onto their
    first position, holding the latest record). *)

val record_count : t -> int
val find : t -> string -> Format.record option

val last_id : t -> string option
(** Id of the most recently appended (or, after recovery, last
    replayed) record — what a restarted server treats as the default
    fit for [GET /predict]. *)

val append : t -> Format.record -> unit
(** Durably append (WAL write + fsync); replaces any live record with
    the same id. *)

val wal_bytes : t -> int

val gc : ?keep_last:int -> ?max_age_ns:int -> t -> unit
(** Compaction with optional retention: drop all but the newest
    [keep_last] records (by append/replay order) and any record whose
    [created_ns] is older than [max_age_ns] before now, then write the
    surviving records into a new snapshot (atomically replacing the
    old one) and truncate the WAL.  With neither option this is pure
    compaction — every live record survives.  Dropped records count
    into [store.gc_dropped_records]; if the latest record is dropped,
    {!last_id} moves to the newest survivor.  A crash between the two
    steps only means the next open replays records already present in
    the snapshot — recovery is idempotent because replay is last-wins
    by id. *)

val close : t -> unit

(** {2 Building records from fits} *)

val record_of_fit :
  ?id:string ->
  ?story:string ->
  ?source:string ->
  ?model:string ->
  ?trace_id:string ->
  ?obs_cursor:float ->
  phi:Dl.Initial.t ->
  config:Dl.Fit.config ->
  result:Dl.Fit.result ->
  unit ->
  Format.record
(** Capture a completed {!Dl.Fit.fit} as a store record.  The phi
    knots, solver configuration (scheme, grid, dt), training horizon and accuracy metrics all come along.
    [model] (default ["dl"]) names the registry model the parameters
    belong to — the serving layer passes ["dl-linear"] for linear
    diffusive fits it embedded via [Linear_model.to_dl].  When [id] is
    omitted it is derived from a digest of the record content (same
    fit, same id — appends deduplicate). *)

val attach_fit_hook : t -> ?source:string -> unit -> unit
(** Install the process-wide {!Dl.Fit.set_on_fit} hook so every
    completed [Fit.fit] (pipeline runs, batch evaluation, bootstrap
    refits) is appended to [t] the moment it finishes. *)

val detach_fit_hook : unit -> unit

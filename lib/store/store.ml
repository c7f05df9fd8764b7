module Format = Format
module Wal = Wal
module Snapshot = Snapshot

(* --- store.* metrics (handles are idempotent to register) --- *)

let m_appends = Obs.Metrics.counter "store.appends"
let m_append_bytes = Obs.Metrics.counter "store.append_bytes"
let m_replayed = Obs.Metrics.counter "store.replayed_records"
let m_dropped_bytes = Obs.Metrics.counter "store.dropped_bytes"
let m_recovered_partial = Obs.Metrics.counter "store.recovered_partial"
let m_compactions = Obs.Metrics.counter "store.compactions"
let m_snapshot_bytes = Obs.Metrics.counter "store.snapshot_bytes"
let m_records = Obs.Metrics.gauge "store.records"

type info = {
  snapshot_records : int;
  wal_records : int;
  dropped_bytes : int;
  corruption : string option;
}

type t = {
  dir : string;
  fsync : bool;
  source : string;
  mutex : Mutex.t;
  table : (string, Format.record) Hashtbl.t;
  mutable order : string list;  (* ids, newest first *)
  mutable last : string option;
  mutable wal : Wal.t;
  info : info;
}

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Fold one record into the live table: last write wins per id, the
   record keeps its first position in the ordering. *)
let absorb t r =
  if not (Hashtbl.mem t.table r.Format.id) then t.order <- r.Format.id :: t.order;
  Hashtbl.replace t.table r.Format.id r;
  t.last <- Some r.Format.id

let warn_partial ~dir ~file ~dropped_bytes msg =
  Obs.Metrics.incr m_recovered_partial;
  Obs.Metrics.incr ~by:dropped_bytes m_dropped_bytes;
  Obs.Log.warn "store.recovered_partial" ~fields:(fun () ->
      [
        Obs.Log.str "dir" dir;
        Obs.Log.str "file" file;
        Obs.Log.int "dropped_bytes" dropped_bytes;
        Obs.Log.str "error" msg;
      ])

let recover dir =
  let snap_records, snap_corruption =
    match Snapshot.read ~dir with
    | None -> ([], None)
    | Some { Snapshot.records; corruption; _ } -> (records, corruption)
  in
  (match snap_corruption with
  | Some msg -> warn_partial ~dir ~file:Snapshot.file_name ~dropped_bytes:0 msg
  | None -> ());
  let wal = Wal.replay ~dir in
  (match wal.Wal.corruption with
  | Some msg ->
    warn_partial ~dir ~file:Wal.file_name ~dropped_bytes:wal.Wal.dropped_bytes
      msg
  | None -> ());
  let corruption =
    match (snap_corruption, wal.Wal.corruption) with
    | Some m, _ | None, Some m -> Some m
    | None, None -> None
  in
  ( snap_records,
    wal,
    {
      snapshot_records = List.length snap_records;
      wal_records = List.length wal.Wal.records;
      dropped_bytes = wal.Wal.dropped_bytes;
      corruption;
    } )

let open_ ?(fsync = true) ?(source = "store") dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let snap_records, wal_replay, info = recover dir in
  let t =
    {
      dir;
      fsync;
      source;
      mutex = Mutex.create ();
      table = Hashtbl.create 64;
      order = [];
      last = None;
      wal = Wal.open_for_append ~fsync ~valid_bytes:wal_replay.Wal.valid_bytes dir;
      info;
    }
  in
  List.iter (absorb t) snap_records;
  List.iter (absorb t) wal_replay.Wal.records;
  Obs.Metrics.incr ~by:(info.snapshot_records + info.wal_records) m_replayed;
  Obs.Metrics.set m_records (float_of_int (Hashtbl.length t.table));
  Obs.Log.info "store.opened" ~fields:(fun () ->
      [
        Obs.Log.str "dir" dir;
        Obs.Log.int "records" (Hashtbl.length t.table);
        Obs.Log.int "snapshot_records" info.snapshot_records;
        Obs.Log.int "wal_records" info.wal_records;
        Obs.Log.int "dropped_bytes" info.dropped_bytes;
      ]);
  t

let load dir =
  if not (Sys.file_exists dir) then
    ([], { snapshot_records = 0; wal_records = 0; dropped_bytes = 0; corruption = None })
  else begin
    let snap_records, wal_replay, info = recover dir in
    (* same last-wins fold as open_, without touching the files *)
    let table = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun r ->
        if not (Hashtbl.mem table r.Format.id) then order := r.Format.id :: !order;
        Hashtbl.replace table r.Format.id r)
      (snap_records @ wal_replay.Wal.records);
    (List.rev_map (Hashtbl.find table) !order, info)
  end

let dir t = t.dir
let info t = t.info

let records t =
  locked t (fun () -> List.rev_map (Hashtbl.find t.table) t.order)

let record_count t = locked t (fun () -> Hashtbl.length t.table)
let find t id = locked t (fun () -> Hashtbl.find_opt t.table id)
let last_id t = locked t (fun () -> t.last)
let wal_bytes t = locked t (fun () -> Wal.size t.wal)

let append t record =
  locked t @@ fun () ->
  let bytes = Wal.append t.wal record in
  absorb t record;
  Obs.Metrics.incr m_appends;
  Obs.Metrics.incr ~by:bytes m_append_bytes;
  Obs.Metrics.set m_records (float_of_int (Hashtbl.length t.table));
  Obs.Log.debug "store.appended" ~fields:(fun () ->
      [
        Obs.Log.str "id" record.Format.id;
        Obs.Log.str "story" record.Format.story;
        Obs.Log.int "bytes" bytes;
      ])

let m_gc_dropped = Obs.Metrics.counter "store.gc_dropped_records"

let gc ?keep_last ?max_age_ns t =
  locked t @@ fun () ->
  (* Retention first: walk ids newest-first, keeping at most
     [keep_last] records and none older than [max_age_ns]. *)
  let cutoff =
    match max_age_ns with
    | None -> None
    | Some age -> Some (Obs.now_ns () - Stdlib.max 0 age)
  in
  let _, keep_newest_last, dropped =
    List.fold_left
      (fun (rank, keep, dropped) id ->
        let r = Hashtbl.find t.table id in
        let over_cap =
          match keep_last with Some k -> rank >= k | None -> false
        in
        let too_old =
          match cutoff with
          | Some c -> r.Format.created_ns < c
          | None -> false
        in
        if over_cap || too_old then (rank + 1, keep, id :: dropped)
        else (rank + 1, id :: keep, dropped))
      (0, [], []) t.order
  in
  List.iter (Hashtbl.remove t.table) dropped;
  t.order <- List.rev keep_newest_last;
  (match t.last with
  | Some id when not (Hashtbl.mem t.table id) ->
    t.last <- (match t.order with id :: _ -> Some id | [] -> None)
  | _ -> ());
  let live = List.rev_map (Hashtbl.find t.table) t.order in
  let bytes = Snapshot.write ~fsync:t.fsync ~dir:t.dir live in
  Wal.reset t.wal;
  Obs.Metrics.incr m_compactions;
  Obs.Metrics.incr ~by:(List.length dropped) m_gc_dropped;
  Obs.Metrics.incr ~by:bytes m_snapshot_bytes;
  Obs.Metrics.set m_records (float_of_int (Hashtbl.length t.table));
  Obs.Log.info "store.compacted" ~fields:(fun () ->
      [
        Obs.Log.str "dir" t.dir;
        Obs.Log.int "records" (List.length live);
        Obs.Log.int "dropped" (List.length dropped);
        Obs.Log.int "snapshot_bytes" bytes;
      ])

let close t = locked t (fun () -> Wal.close t.wal)

(* --- capturing fits --- *)

let record_of_fit ?id ?(story = "") ?(source = "store") ?(model = "dl")
    ?(trace_id = "") ?(obs_cursor = 0.) ~phi ~config ~result () =
  let knots = Dl.Initial.knots phi in
  let r =
    {
      Format.id = (match id with Some i -> i | None -> "");
      story;
      source;
      model;
      created_ns = Obs.now_ns ();
      params = result.Dl.Fit.params;
      phi_xs = Array.map fst knots;
      phi_densities = Array.map snd knots;
      phi_construction = Dl.Initial.construction phi;
      scheme = config.Dl.Fit.solver_scheme;
      nx = config.Dl.Fit.solver_nx;
      dt = config.Dl.Fit.solver_dt;
      reference_stepper = false;
      fit_times = config.Dl.Fit.fit_times;
      training_error = result.Dl.Fit.training_error;
      evaluations = result.Dl.Fit.evaluations;
      starts = config.Dl.Fit.starts;
      trace_id;
      obs_cursor;
    }
  in
  match id with
  | Some _ -> r
  | None ->
    (* content-derived id: identical fits deduplicate on append *)
    { r with Format.id = "fit-" ^ Digest.to_hex (Digest.string (Format.encode r)) }

let attach_fit_hook t ?source () =
  let source = match source with Some s -> s | None -> t.source in
  Dl.Fit.set_on_fit
    (Some
       (fun ev ->
         let record =
           record_of_fit ?id:ev.Dl.Fit.ev_id
             ?story:ev.Dl.Fit.ev_id ~source
             ?trace_id:(Obs.Span.trace_id ()) ~phi:ev.Dl.Fit.ev_phi
             ~config:ev.Dl.Fit.ev_config ~result:ev.Dl.Fit.ev_result ()
         in
         append t record))

let detach_fit_hook () = Dl.Fit.set_on_fit None

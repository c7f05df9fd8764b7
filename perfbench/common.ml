(* Shared plumbing: the forked server child, memory readings, the
   result line and the run's bookkeeping. *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  metrics : metric list;
  attempted : int;  (** operations sent plus correctness checks made *)
  failed : int;  (** failed, non-2xx or missing responses, failed checks *)
}

(* Human-readable facts go to stdout as they are learned, ahead of the
   result line, so a run that fails still shows how far it got. *)
let note k v = Printf.printf "  %s: %s\n%!" k v
let notes l = List.iter (fun (k, v) -> note k v) l

let m name unit_ value = { name; value; unit_ }

(* Every file the benchmark writes lives under this directory of the
   checkout it runs in. *)
let work_dir = ref "."

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Peak resident set (VmHWM) of a process, in MiB; [pid] 0 reads this
   process. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* CPU seconds a process has run so far, summed over its threads.  For
   this process ([pid] 0) that is getrusage, which also counts threads
   that have exited (pool domains); for a server child it is the sum of
   the scheduler's nanosecond counters in /proc/PID/task/*/schedstat,
   which sees only live threads, so read a child whose threads live
   through the measurement.  Both rest on the scheduler's run time,
   which leaves out time the hypervisor stole: on a shared host this
   reading moves mostly with the program's own work, where wall-clock
   latency moves with the neighbours. *)
let cpu_s pid =
  if pid = 0 then
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  else
    let dir = Printf.sprintf "/proc/%d/task" pid in
    match Sys.readdir dir with
    | exception Sys_error _ -> nan
    | tasks ->
      Array.fold_left
        (fun acc tid ->
          match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
          | exception Sys_error _ -> acc
          | ic ->
            let ns = try Scanf.sscanf (input_line ic) "%f" Fun.id with _ -> nan in
            close_in ic;
            acc +. (ns /. 1e9))
        0. tasks

(* The server runs in a forked child, as the repository's own serve
   bench does: OCaml 5 forbids fork once a domain has been spawned, the
   child's worker domains then get the machine to themselves apart
   from the generator, and its peak memory is read on its own.  The
   parent must not have spawned a domain before calling this. *)
type child = { pid : int; port : int }

let start_server config =
  let server = Serve.Server.create ~config () in
  let port = Serve.Server.port server in
  flush_all ();
  match Unix.fork () with
  | 0 -> (
    try
      Serve.Server.install_signal_handlers server;
      Serve.Server.run server;
      Unix._exit 0
    with _ -> Unix._exit 1)
  | pid -> { pid; port }

let children : child list ref = ref []

let spawn config =
  let c = start_server config in
  children := c :: !children;
  c

(* SIGTERM (graceful drain), then SIGKILL if it lingers; always reaped.
   Returns whether the child exited cleanly. *)
let stop_server c =
  children := List.filter (fun x -> x.pid <> c.pid) !children;
  (try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ when tries > 0 ->
      ignore (Unix.select [] [] [] 0.02);
      reap (tries - 1)
    | 0, _ ->
      (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] c.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error _ -> false
  in
  reap 500

let () = at_exit (fun () -> List.iter (fun c -> ignore (stop_server c)) !children)

let base_config =
  {
    Serve.Server.default_config with
    Serve.Server.port = 0;
    jobs = (if Parallel.Pool.domains_available then 2 else 1);
  }

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Set up three times, keep the last set-up and report the median CPU
   time of a set-up: this process's, plus that of the server child it
   started ([child] gives the child's pid, 0 for none).  Set-up cost is
   a metric of its own, so work moved into it shows; it is read as CPU
   time because wall time on a shared host stretches with the share the
   hypervisor steals.  The wall times are printed. *)
let setup_median ?(child = fun _ -> 0) ~discard f =
  let cpu = ref [] and wall = ref [] and last = ref None in
  for rep = 1 to 3 do
    let c0 = cpu_s 0 in
    let x, dt = timed f in
    let pid = child x in
    cpu := (cpu_s 0 -. c0 +. if pid = 0 then 0. else cpu_s pid) :: !cpu;
    wall := dt :: !wall;
    if rep < 3 then discard x else last := Some x
  done;
  let med l = Stats.median (Array.of_list l) in
  note "set-up" (Printf.sprintf "median %.3f s CPU, %.3f s wall" (med !cpu) (med !wall));
  (Option.get !last, med !cpu)

(* Send one request and wait for its reply, outside any schedule. *)
let request lg ?(conn = 0) ?timeout bytes = Loadgen.call lg ~conn ?timeout bytes

let scrape lg ?conn () =
  let r = request lg ?conn (Loadgen.get_request "/metrics") in
  if r.Loadgen.status <> 200 then failwith "GET /metrics failed";
  Prom.parse r.Loadgen.body

let ms s = s *. 1e3

(* Percentile of a latency sample in ms; a sample too small for the
   rank is a defect of the benchmark's sizing, not a result. *)
let pct_ms name xs p =
  match Stats.percentile xs p with
  | Some v -> ms v
  | None ->
    failwith
      (Printf.sprintf "%s: %d samples cannot support p%g (needs %d)" name
         (Array.length xs) (p *. 100.) (Stats.min_samples p))

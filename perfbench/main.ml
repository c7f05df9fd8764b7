(* perfbench: the vote-to-forecast benchmark.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
     [--work-dir DIR] [--commit ID]

   Prints human-readable facts and figures, then, as its last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  See perfbench/README.md. *)

open Perfbench

let workloads = [ "offline-forecast"; "serve-predict"; "live-ingest" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload offline-forecast|serve-predict|live-ingest \
     --seed N --seconds S --trace 0|1 [--work-dir DIR] [--commit ID]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and commit = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
      parse rest
    | "--work-dir" :: v :: rest -> Common.work_dir := v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some d, Some t when d > 0. && List.mem !workload workloads -> (s, d, t)
    | _ -> usage ()
  in
  Common.mkdir_p !Common.work_dir;
  (* a terminated run still stops its server children (at_exit) *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  Printf.printf "machine: nproc %d, ocaml %s, commit %s, workload %s, seed %d, seconds %g, trace %b\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version !commit !workload seed seconds trace;
  let run =
    match !workload with
    | "serve-predict" -> Serve_predict.run
    | "live-ingest" -> Live_ingest.run
    | _ -> Offline.run
  in
  let steal0 = Noise.read () in
  let o = run ~seed ~seconds ~trace in
  Printf.printf "  cpu steal during run: %.2f%%\n" (100. *. Noise.share steal0 (Noise.read ()));
  Printf.printf "  fail_ratio: %d / %d = %.6f\n" o.Common.failed o.Common.attempted
    (float_of_int o.Common.failed /. float_of_int (max 1 o.Common.attempted));
  List.iter
    (fun m -> Printf.printf "  %-40s %14.6g %s\n" m.Common.name m.Common.value m.Common.unit_)
    o.Common.metrics;
  let module J = Serve.Tiny_json in
  let correct =
    o.Common.failed = 0
    && List.for_all (fun m -> Float.is_finite m.Common.value) o.Common.metrics
  in
  print_endline
    (J.to_string
       (J.Object
          [
            ("correct", J.Bool correct);
            ("attempted", J.Number (float_of_int o.Common.attempted));
            ("failed", J.Number (float_of_int o.Common.failed));
            ( "metrics",
              J.Object
                (List.map
                   (fun m ->
                     ( m.Common.name,
                       J.Object [ ("value", J.Number m.Common.value); ("unit", J.String m.Common.unit_) ] ))
                   o.Common.metrics) );
          ]))

(* In-process probes of single layers on the workload's own bytes and
   state: each times many repetitions of one library call and reports
   the mean, so the figure reflects the layer and not the socket. *)

module J = Serve.Tiny_json

(* Mean seconds per call of [f], over enough repetitions (at least 100)
   to fill a fifth of a second. *)
let per_call f =
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while !reps < 100 || Unix.gettimeofday () -. t0 < 0.2 do
    f ();
    incr reps
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !reps

(* Mean nanoseconds to feed one request's bytes into a keep-alive
   connection's incremental parser and pull the parsed request out, as
   the server's event loop does for every request. *)
let parse_ns request =
  let b = Bytes.of_string request in
  let p = Serve.Http.parser ~max_header:8192 ~max_body:(2 * 1024 * 1024) in
  1e9
  *. per_call (fun () ->
         Serve.Http.parser_feed p b 0 (Bytes.length b);
         match Serve.Http.parser_next p with
         | `Request _ -> ()
         | `More | `Error _ -> failwith "perfbench: request bytes do not parse")

(* Mean nanoseconds to render a reply the handler produced: the body
   captured from the server is parsed once, and re-encoding that value
   is timed, so the probe follows the reply's shape as it changes. *)
let encode_ns body =
  match J.parse body with
  | Error e -> failwith ("perfbench: reply body does not parse: " ^ e)
  | Ok v -> 1e9 *. per_call (fun () -> ignore (J.to_string v))

let decode_ns body =
  1e9 *. per_call (fun () -> match J.parse body with Ok _ -> () | Error e -> failwith e)

(* Readings from the program's own metrics registry, in the Prometheus
   text format that [GET /metrics] serves (and that an in-process
   [Obs.Metrics.to_prometheus_string] renders identically).

   Only counters and histogram [_sum]/[_count] pairs are read: the
   registry's histogram buckets are decades of nanoseconds, far too
   coarse for quantiles, so means come from [_sum / _count] and every
   figure is a delta between a scrape before and a scrape after the
   measured phase. *)

type t = (string, float) Hashtbl.t

let parse text : t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> ()
        | Some i -> (
          let key = String.sub line 0 i in
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> Hashtbl.replace tbl key v
          | None -> ()))
    (String.split_on_char '\n' text);
  tbl

(* "pde.solve_ns" -> "dlosn_pde_solve_ns", as the exposition names it. *)
let family name =
  "dlosn_" ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) name

let key ?label name suffix =
  family name ^ suffix
  ^ match label with None -> "" | Some l -> Printf.sprintf "{label=\"%s\"}" l

let get (t : t) k = Option.value ~default:0. (Hashtbl.find_opt t k)

let delta ~before ~after k = get after k -. get before k

let counter ?label ~before ~after name =
  delta ~before ~after (key ?label name "_total")

let gauge ?label t name = Hashtbl.find_opt t (key ?label name "")

let hist_count ?label ~before ~after name =
  delta ~before ~after (key ?label name "_count")

let hist_sum ?label ~before ~after name =
  delta ~before ~after (key ?label name "_sum")

(* Mean of the observations made between the two scrapes; 0 when there
   were none (the layer did no work in the phase). *)
let hist_mean ?label ~before ~after name =
  let n = hist_count ?label ~before ~after name in
  if n <= 0. then 0. else hist_sum ?label ~before ~after name /. n

(* The same, summed over several measured phases. *)
let counter_over ?label phases name =
  List.fold_left (fun acc (before, after) -> acc +. counter ?label ~before ~after name) 0. phases

let mean_over ?label phases name =
  let sum f = List.fold_left (fun acc (before, after) -> acc +. f ~before ~after) 0. phases in
  let n = sum (fun ~before ~after -> hist_count ?label ~before ~after name) in
  if n <= 0. then 0. else sum (fun ~before ~after -> hist_sum ?label ~before ~after name) /. n

let local () = parse (Obs.Metrics.to_prometheus_string ())

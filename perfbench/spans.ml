(* The benchmark's own spans: timed scopes around the calls it makes
   into each layer, kept in memory and written out when the run ends.

   A span's self time is its duration minus the part of its interval
   covered by its children.  Children may overlap one another (work
   handed to parallel workers) or spill past the parent's edges (clock
   steps), so the covered part is the measure of the union of the
   children's intervals clipped to the parent's. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;  (** seconds *)
  stop : float;
}

(* Length of the union of [intervals] intersected with [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_time ~start ~stop children =
  let dur = stop -. start in
  if dur <= 0. then 0. else Float.max 0. (dur -. covered ~lo:start ~hi:stop children)

type recorder = {
  mutable spans : span list;
  mutable next : int;
  mutable stack : int list;
  enabled : bool;
}

let recorder ~enabled = { spans = []; next = 0; stack = []; enabled }

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.stack with p :: _ -> Some p | [] -> None in
    r.stack <- id :: r.stack;
    let start = Unix.gettimeofday () in
    let close () =
      r.stack <- List.tl r.stack;
      r.spans <- { id; parent; name; start; stop = Unix.gettimeofday () } :: r.spans
    in
    Fun.protect ~finally:close f
  end

(* Record an already-finished interval (a request timed by the load
   generator) as a child of the innermost open span. *)
let add r name ~start ~stop =
  if r.enabled then begin
    let id = r.next in
    r.next <- id + 1;
    let parent = match r.stack with p :: _ -> Some p | [] -> None in
    r.spans <- { id; parent; name; start; stop } :: r.spans
  end

let spans r = List.rev r.spans

(* Self time of every recorded span with the given name, in seconds. *)
let self_times r name =
  let all = spans r in
  List.filter (fun s -> s.name = name) all
  |> List.map (fun s ->
         let kids =
           List.filter_map
             (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
             all
         in
         self_time ~start:s.start ~stop:s.stop kids)
  |> Array.of_list

let write_json r path =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n{\"id\":%d,\"parent\":%s,\"name\":%S,\"start\":%.6f,\"stop\":%.6f}"
        (if i = 0 then "" else ",")
        s.id
        (match s.parent with Some p -> string_of_int p | None -> "null")
        s.name s.start s.stop)
    (spans r);
  output_string oc "\n]\n";
  close_out oc

(* Open-loop arrival schedules.

   An open-loop generator sends each request at its due time whether or
   not earlier ones have been answered, so a stalled server faces a
   growing queue instead of a politely slowed client.  Latency is timed
   from the due time, which charges a stall to every request it
   delays. *)

(* Due times (seconds, relative to the schedule start) of a constant
   [rate] per second held for [duration] seconds. *)
let constant ~rate ~duration =
  if rate <= 0. || duration <= 0. then
    invalid_arg "Schedule.constant: rate and duration must be positive";
  let n = int_of_float (Float.floor (rate *. duration)) in
  Array.init n (fun i -> float_of_int i /. rate)

(* Event-time pacing: an event at [hours] of story time becomes due at
   [hours *. 3600 / speedup] seconds of wall time. *)
let paced ~speedup hours =
  if speedup <= 0. then invalid_arg "Schedule.paced: speedup must be positive";
  Array.map (fun h -> h *. 3600. /. speedup) hours

(* Group time-ascending due times into ticks of [tick] seconds: every
   item due within one tick is sent together at the tick's first due
   time.  Returns (due time, first index, count) triples. *)
let batches ~tick due =
  if tick <= 0. then invalid_arg "Schedule.batches: tick must be positive";
  let n = Array.length due in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = due.(!i) in
    let j = ref (!i + 1) in
    while !j < n && due.(!j) < start +. tick do
      incr j
    done;
    out := (start, !i, !j - !i) :: !out;
    i := !j
  done;
  Array.of_list (List.rev !out)

(* Host noise on a virtual machine: CPU time the hypervisor gave to
   other guests ("steal"), from the first line of /proc/stat.  Each run
   prints the share stolen while it measured, so a reader can tell a
   slow program from a busy host.  The gated figures are CPU times,
   which leave stolen time out (see {!Common.cpu_s}). *)

(* (steal, total) jiffies over all CPUs; None off Linux. *)
let read () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields -> (
      match List.map float_of_string_opt fields with
      | v when List.for_all Option.is_some v ->
        let v = List.map Option.get v in
        Some ((if List.length v > 7 then List.nth v 7 else 0.), List.fold_left ( +. ) 0. v)
      | _ -> None)
    | _ -> None)

let share a b =
  match (a, b) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> (s1 -. s0) /. (t1 -. t0)
  | _ -> 0.

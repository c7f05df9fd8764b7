(* A single-threaded, non-blocking HTTP/1.1 load generator over
   loopback keep-alive connections.

   [Serve.Client] blocks on each request and hides its socket, which
   makes an open loop impossible: a slow response would hold back every
   request due after it.  Here requests are written the moment they are
   due (pipelined behind any still unanswered on the same connection),
   and responses are matched to requests in order, as HTTP/1.1 requires.
   Nothing here knows the server's routes or formats. *)

type reply = {
  tag : int;  (** the caller's label for the request *)
  due : float;  (** when the schedule wanted it sent *)
  sent : float;  (** when it was handed to the socket buffer *)
  recv : float;  (** when its response was complete *)
  status : int;  (** HTTP status; 0 when the connection failed *)
  body : string;
}

type pending = { p_tag : int; p_due : float; p_sent : float }

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  inbuf : Buffer.t;
  mutable scan : int;  (* where the header-terminator search resumes *)
  queue : pending Queue.t;
  mutable dead : bool;
}

type t = { conns : conn array; rbuf : Bytes.t; mutable failed : reply list }

let connect ~port n =
  let conns =
    Array.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.set_nonblock fd;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        {
          fd;
          out = Buffer.create 4096;
          out_off = 0;
          inbuf = Buffer.create 65536;
          scan = 0;
          queue = Queue.create ();
          dead = false;
        })
  in
  { conns; rbuf = Bytes.create 65536; failed = [] }

let close t =
  Array.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.conns

let outstanding t =
  Array.fold_left (fun acc c -> acc + Queue.length c.queue) 0 t.conns

let fail_conn t c now =
  if not c.dead then begin
    c.dead <- true;
    Queue.iter
      (fun p ->
        t.failed <-
          { tag = p.p_tag; due = p.p_due; sent = p.p_sent; recv = now; status = 0; body = "" }
          :: t.failed)
      c.queue;
    Queue.clear c.queue
  end

let get_request target = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" target

let post_request target body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    target (String.length body) body

(* Queue a request on connection [conn]; it counts as sent now. *)
let send t ~conn ~due ~tag bytes =
  let c = t.conns.(conn) in
  let now = Unix.gettimeofday () in
  if c.dead then
    t.failed <- { tag; due; sent = now; recv = now; status = 0; body = "" } :: t.failed
  else begin
    Buffer.add_string c.out bytes;
    Queue.push { p_tag = tag; p_due = due; p_sent = now } c.queue
  end

let flush_out t c now =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 && not c.dead then
    match
      Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len
    with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> fail_conn t c now

let find_crlf2 s ~from =
  let n = String.length s in
  let rec go i =
    if i + 4 > n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go from

let content_length head =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i))
             = "content-length" ->
        int_of_string_opt
          (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' head)

(* Pull every complete response out of the connection's input. *)
let rec parse_replies t c now on_reply =
  let s = Buffer.contents c.inbuf in
  match find_crlf2 s ~from:c.scan with
  | None -> c.scan <- max 0 (String.length s - 3)
  | Some hend -> (
    let head = String.sub s 0 hend in
    let status =
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> Option.value ~default:0 (int_of_string_opt code)
      | _ -> 0
    in
    let clen = Option.value ~default:0 (content_length head) in
    let total = hend + 4 + clen in
    if String.length s < total then c.scan <- hend
    else
      match Queue.take_opt c.queue with
      | None -> fail_conn t c now
      | Some p ->
        let body = String.sub s (hend + 4) clen in
        Buffer.clear c.inbuf;
        Buffer.add_substring c.inbuf s total (String.length s - total);
        c.scan <- 0;
        on_reply
          { tag = p.p_tag; due = p.p_due; sent = p.p_sent; recv = now; status; body };
        parse_replies t c now on_reply)

let read_in t c on_reply =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> fail_conn t c (Unix.gettimeofday ())
  | n ->
    Buffer.add_subbytes c.inbuf t.rbuf 0 n;
    parse_replies t c (Unix.gettimeofday ()) on_reply
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> fail_conn t c (Unix.gettimeofday ())

let drain_failed t on_reply =
  let f = List.rev t.failed in
  t.failed <- [];
  List.iter on_reply f

(* Do socket I/O until wall time [until], delivering completed (and
   failed) responses to [on_reply]. *)
let pump t ~until ~on_reply =
  let rec loop () =
    let now = Unix.gettimeofday () in
    Array.iter (fun c -> flush_out t c now) t.conns;
    drain_failed t on_reply;
    let wait = until -. now in
    if wait > 0. then begin
      let live = List.filter (fun c -> not c.dead) (Array.to_list t.conns) in
      let rd = List.map (fun c -> c.fd) live in
      let wr =
        List.filter_map
          (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None)
          live
      in
      let r, _, _ =
        try Unix.select rd wr [] wait
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun c -> if List.memq c.fd r then read_in t c on_reply) live;
      drain_failed t on_reply;
      loop ()
    end
  in
  loop ()

(* Run until every queued request is answered or [deadline] passes;
   whatever is still unanswered then is reported as failed. *)
let drain t ~deadline ~on_reply =
  let rec loop () =
    if outstanding t > 0 && Unix.gettimeofday () < deadline then begin
      pump t ~until:(Float.min deadline (Unix.gettimeofday () +. 0.01)) ~on_reply;
      loop ()
    end
  in
  loop ();
  Array.iter
    (fun c -> if not (Queue.is_empty c.queue) then fail_conn t c (Unix.gettimeofday ()))
    t.conns;
  drain_failed t on_reply

(* One blocking-style exchange on connection [conn], for set-up and
   scrapes outside the measured schedule. *)
let call t ~conn ?(timeout = 60.) bytes =
  let result = ref None in
  let now = Unix.gettimeofday () in
  send t ~conn ~due:now ~tag:(-1) bytes;
  let deadline = now +. timeout in
  while !result = None && Unix.gettimeofday () < deadline do
    pump t ~until:(Float.min deadline (Unix.gettimeofday () +. 0.005))
      ~on_reply:(fun r -> result := Some r)
  done;
  match !result with
  | Some r -> r
  | None -> { tag = -1; due = now; sent = now; recv = deadline; status = 0; body = "" }

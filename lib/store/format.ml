(* Binary record encoding + CRC32 framing shared by the WAL and the
   snapshot writer.  Floats travel as their IEEE-754 bit patterns so a
   round-trip is exact; everything is little-endian. *)

type record = {
  id : string;
  story : string;
  source : string;
  model : string;
  created_ns : int;
  params : Dl.Params.t;
  phi_xs : float array;
  phi_densities : float array;
  phi_construction : Dl.Initial.construction;
  scheme : Dl.Model.scheme;
  nx : int;
  dt : float;
  reference_stepper : bool;
  fit_times : float array;
  training_error : float;
  evaluations : int;
  starts : int;
  trace_id : string;
  obs_cursor : float;
}

(* v1: no model field (implicitly "dl").  v2: model name after
   [source].  v3: trailing [trace_id] (the trace that produced the
   fit, for span links across warm restarts; may be empty) and
   [obs_cursor] (the live-ingestion watermark at checkpoint time; 0
   for batch fits).  [decode] accepts all three; [encode] always
   writes the current version. *)
let version = 3
let min_version = 1

let phi r =
  Dl.Initial.of_observations_with ~construction:r.phi_construction
    ~xs:r.phi_xs ~densities:r.phi_densities

let scheme_name = function
  | Dl.Model.Ftcs -> "ftcs"
  | Dl.Model.Crank_nicolson -> "crank-nicolson"
  | Dl.Model.Strang -> "strang"

let scheme_of_name = function
  | "ftcs" -> Ok Dl.Model.Ftcs
  | "crank-nicolson" | "imex" | "cn" -> Ok Dl.Model.Crank_nicolson
  | "strang" -> Ok Dl.Model.Strang
  | s ->
    Error (Printf.sprintf "unknown scheme %S (ftcs|crank-nicolson|strang)" s)

(* The trailing "ref=false" is kept literally: fit cache keys and the
   matching of recovered checkpoints made while a reference-stepper
   option existed must not change. *)
let solver_signature ~scheme ~nx ~dt =
  Printf.sprintf "scheme=%s;nx=%d;dt=%Lx;ref=false" (scheme_name scheme) nx
    (Int64.bits_of_float dt)

let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let farray_eq a b = Array.length a = Array.length b && Array.for_all2 float_eq a b

let growth_eq a b =
  match (a, b) with
  | Dl.Growth.Constant x, Dl.Growth.Constant y -> float_eq x y
  | ( Dl.Growth.Exp_decay { a; b; c },
      Dl.Growth.Exp_decay { a = a'; b = b'; c = c' } ) ->
    float_eq a a' && float_eq b b' && float_eq c c'
  | _ -> false

let params_eq (p : Dl.Params.t) (q : Dl.Params.t) =
  float_eq p.Dl.Params.d q.Dl.Params.d
  && float_eq p.Dl.Params.k q.Dl.Params.k
  && growth_eq p.Dl.Params.r q.Dl.Params.r
  && float_eq p.Dl.Params.l q.Dl.Params.l
  && float_eq p.Dl.Params.big_l q.Dl.Params.big_l

let equal a b =
  String.equal a.id b.id && String.equal a.story b.story
  && String.equal a.source b.source
  && String.equal a.model b.model
  && a.created_ns = b.created_ns
  && params_eq a.params b.params
  && farray_eq a.phi_xs b.phi_xs
  && farray_eq a.phi_densities b.phi_densities
  && a.phi_construction = b.phi_construction
  && a.scheme = b.scheme && a.nx = b.nx && float_eq a.dt b.dt
  && a.reference_stepper = b.reference_stepper
  && farray_eq a.fit_times b.fit_times
  && float_eq a.training_error b.training_error
  && a.evaluations = b.evaluations && a.starts = b.starts
  && String.equal a.trace_id b.trace_id
  && float_eq a.obs_cursor b.obs_cursor

(* --- primitive writers --- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Format.put_u32: out of range";
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let put_i64 buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let put_float buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float v);
  Buffer.add_bytes buf b

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_farray buf a =
  put_u32 buf (Array.length a);
  Array.iter (put_float buf) a

let put_growth buf = function
  | Dl.Growth.Constant v ->
    put_u8 buf 0;
    put_float buf v
  | Dl.Growth.Exp_decay { a; b; c } ->
    put_u8 buf 1;
    put_float buf a;
    put_float buf b;
    put_float buf c

(* --- primitive readers: a cursor over an immutable string --- *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let need cur n what =
  if cur.pos + n > String.length cur.src then
    raise (Bad (Printf.sprintf "truncated payload reading %s" what))

let get_u8 cur what =
  need cur 1 what;
  let v = Char.code cur.src.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let get_u32 cur what =
  need cur 4 what;
  let v =
    Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string cur.src) cur.pos)
    land 0xffff_ffff
  in
  cur.pos <- cur.pos + 4;
  v

let get_i64 cur what =
  need cur 8 what;
  let v = Bytes.get_int64_le (Bytes.unsafe_of_string cur.src) cur.pos in
  cur.pos <- cur.pos + 8;
  Int64.to_int v

let get_float cur what =
  need cur 8 what;
  let v =
    Int64.float_of_bits
      (Bytes.get_int64_le (Bytes.unsafe_of_string cur.src) cur.pos)
  in
  cur.pos <- cur.pos + 8;
  v

let max_array = 1 lsl 20

let get_string cur what =
  let n = get_u32 cur what in
  if n > 16 * 1024 * 1024 then
    raise (Bad (Printf.sprintf "oversized string for %s" what));
  need cur n what;
  let s = String.sub cur.src cur.pos n in
  cur.pos <- cur.pos + n;
  s

let get_farray cur what =
  let n = get_u32 cur what in
  if n > max_array then
    raise (Bad (Printf.sprintf "oversized array for %s" what));
  Array.init n (fun _ -> get_float cur what)

let get_growth cur =
  match get_u8 cur "growth tag" with
  | 0 -> Dl.Growth.Constant (get_float cur "growth value")
  | 1 ->
    let a = get_float cur "growth a" in
    let b = get_float cur "growth b" in
    let c = get_float cur "growth c" in
    Dl.Growth.Exp_decay { a; b; c }
  | t -> raise (Bad (Printf.sprintf "unknown growth tag %d" t))

(* --- record payload --- *)

let encode r =
  let buf = Buffer.create 256 in
  put_u8 buf version;
  put_string buf r.id;
  put_string buf r.story;
  put_string buf r.source;
  put_string buf r.model;
  put_i64 buf r.created_ns;
  put_float buf r.params.Dl.Params.d;
  put_float buf r.params.Dl.Params.k;
  put_growth buf r.params.Dl.Params.r;
  put_float buf r.params.Dl.Params.l;
  put_float buf r.params.Dl.Params.big_l;
  put_farray buf r.phi_xs;
  put_farray buf r.phi_densities;
  put_u8 buf (match r.phi_construction with `Cubic_spline -> 0 | `Pchip -> 1);
  put_u8 buf
    (match r.scheme with
    | Dl.Model.Ftcs -> 0
    | Dl.Model.Crank_nicolson -> 1
    | Dl.Model.Strang -> 2);
  put_u32 buf r.nx;
  put_float buf r.dt;
  put_u8 buf (if r.reference_stepper then 1 else 0);
  put_farray buf r.fit_times;
  put_float buf r.training_error;
  put_u32 buf r.evaluations;
  put_u32 buf r.starts;
  put_string buf r.trace_id;
  put_float buf r.obs_cursor;
  Buffer.contents buf

let decode s =
  let cur = { src = s; pos = 0 } in
  try
    let v = get_u8 cur "version" in
    if v < min_version || v > version then
      Error
        (Printf.sprintf "unsupported record version %d (want %d..%d)" v
           min_version version)
    else begin
      let id = get_string cur "id" in
      let story = get_string cur "story" in
      let source = get_string cur "source" in
      let model = if v >= 2 then get_string cur "model" else "dl" in
      let created_ns = get_i64 cur "created_ns" in
      let d = get_float cur "d" in
      let k = get_float cur "k" in
      let r = get_growth cur in
      let l = get_float cur "l" in
      let big_l = get_float cur "big_l" in
      let phi_xs = get_farray cur "phi_xs" in
      let phi_densities = get_farray cur "phi_densities" in
      let phi_construction =
        match get_u8 cur "phi construction" with
        | 0 -> `Cubic_spline
        | 1 -> `Pchip
        | t -> raise (Bad (Printf.sprintf "unknown phi construction tag %d" t))
      in
      let scheme =
        match get_u8 cur "scheme" with
        | 0 -> Dl.Model.Ftcs
        | 1 -> Dl.Model.Crank_nicolson
        | 2 -> Dl.Model.Strang
        | t -> raise (Bad (Printf.sprintf "unknown scheme tag %d" t))
      in
      let nx = get_u32 cur "nx" in
      let dt = get_float cur "dt" in
      let reference_stepper = get_u8 cur "reference flag" <> 0 in
      let fit_times = get_farray cur "fit_times" in
      let training_error = get_float cur "training_error" in
      let evaluations = get_u32 cur "evaluations" in
      let starts = get_u32 cur "starts" in
      let trace_id = if v >= 3 then get_string cur "trace_id" else "" in
      let obs_cursor = if v >= 3 then get_float cur "obs_cursor" else 0. in
      if cur.pos <> String.length s then
        Error
          (Printf.sprintf "trailing garbage: %d bytes past the record"
             (String.length s - cur.pos))
      else
        Ok
          {
            id;
            story;
            source;
            model;
            created_ns;
            params = Dl.Params.make ~d ~k ~r ~l ~big_l;
            phi_xs;
            phi_densities;
            phi_construction;
            scheme;
            nx;
            dt;
            reference_stepper;
            fit_times;
            training_error;
            evaluations;
            starts;
            trace_id;
            obs_cursor;
          }
    end
  with
  | Bad msg -> Error msg
  | Invalid_argument msg -> Error msg (* Params.make on nonsense values *)

(* --- CRC32 (IEEE 802.3 polynomial, as in zlib) --- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0) s =
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xffff_ffff) in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffff_ffff

(* --- framing --- *)

let max_payload = 16 * 1024 * 1024

let frame payload =
  if String.length payload > max_payload then
    invalid_arg "Format.frame: payload too large";
  let buf = Buffer.create (String.length payload + 8) in
  put_u32 buf (String.length payload);
  put_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

type frame_result = Frame of string * int | End | Corrupt of string

let read_frame buf ~pos =
  let len = String.length buf in
  if pos = len then End
  else if pos + 8 > len then
    Corrupt (Printf.sprintf "torn frame header at byte %d" pos)
  else begin
    let b = Bytes.unsafe_of_string buf in
    let plen = Int32.to_int (Bytes.get_int32_le b pos) land 0xffff_ffff in
    let crc = Int32.to_int (Bytes.get_int32_le b (pos + 4)) land 0xffff_ffff in
    if plen > max_payload then
      Corrupt (Printf.sprintf "implausible frame length %d at byte %d" plen pos)
    else if pos + 8 + plen > len then
      Corrupt (Printf.sprintf "torn frame at byte %d (%d of %d payload bytes)"
                 pos (len - pos - 8) plen)
    else
      let payload = String.sub buf (pos + 8) plen in
      if crc32 payload <> crc then
        Corrupt (Printf.sprintf "CRC mismatch at byte %d" pos)
      else Frame (payload, pos + 8 + plen)
  end

let header ~magic =
  if String.length magic <> 8 then invalid_arg "Format.header: magic must be 8 bytes";
  let buf = Buffer.create 12 in
  Buffer.add_string buf magic;
  put_u32 buf version;
  Buffer.contents buf

let check_header ~magic buf =
  if String.length buf < 12 then Error "file shorter than its header"
  else if not (String.equal (String.sub buf 0 8) magic) then
    Error (Printf.sprintf "bad magic (want %S)" magic)
  else
    let v =
      Int32.to_int (Bytes.get_int32_le (Bytes.unsafe_of_string buf) 8)
      land 0xffff_ffff
    in
    if v < min_version || v > version then
      Error (Printf.sprintf "unsupported format version %d" v)
    else Ok 12

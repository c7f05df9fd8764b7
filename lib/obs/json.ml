type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

exception Err of int * string

let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Err (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> err (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else err (Printf.sprintf "expected %s" word)
  in
  (* exactly four hex digits (no sign, no underscores) *)
  let hex4 () =
    if !pos + 4 > n then err "truncated \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> err "bad \\u escape"
      in
      code := (!code lsl 4) lor d
    done;
    pos := !pos + 4;
    !code
  in
  let is_low code = code >= 0xDC00 && code <= 0xDFFF in
  (* the code point of a \u escape whose "\u" is already consumed; a
     high surrogate must be followed by an escaped low one *)
  let unicode_escape () =
    let code = hex4 () in
    if is_low code then err "lone surrogate"
    else if code >= 0xD800 && code <= 0xDBFF then begin
      if not (!pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
        err "lone surrogate";
      pos := !pos + 2;
      let low = hex4 () in
      if not (is_low low) then err "lone surrogate";
      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
    end
    else code
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then err "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        if !pos >= n then err "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char buf e;
          loop ()
        | 'n' ->
          Buffer.add_char buf '\n';
          loop ()
        | 't' ->
          Buffer.add_char buf '\t';
          loop ()
        | 'r' ->
          Buffer.add_char buf '\r';
          loop ()
        | 'b' ->
          Buffer.add_char buf '\b';
          loop ()
        | 'f' ->
          Buffer.add_char buf '\012';
          loop ()
        | 'u' ->
          Buffer.add_utf_8_uchar buf (Uchar.of_int (unicode_escape ()));
          loop ()
        | _ -> err "bad escape")
      | c when Char.code c < 0x20 -> err "control character in string"
      | c ->
        Buffer.add_char buf c;
        loop ()
    in
    loop ()
  in
  (* the current byte, NUL past the end (never part of a number) *)
  let current () = if !pos < n then s.[!pos] else '\000' in
  (* one or more digits; false (nothing consumed) when there are none *)
  let digits () =
    let from = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    !pos > from
  in
  (* RFC 8259: [-? (0 | [1-9][0-9]* ) (.[0-9]+)? ([eE][+-]?[0-9]+)?],
     not followed by another number character (so "01" and "1.2.3" are
     bad numbers, not a number and trailing bytes); errors point at
     the number's first byte *)
  let parse_number () =
    let start = !pos in
    if current () = '-' then advance ();
    let ok =
      (if current () = '0' then begin
         advance ();
         true
       end
       else digits ())
      && (current () <> '.'
         || begin
           advance ();
           digits ()
         end)
      && (match current () with
         | 'e' | 'E' ->
           advance ();
           (match current () with '+' | '-' -> advance () | _ -> ());
           digits ()
         | _ -> true)
      &&
      match current () with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> false
      | _ -> true
    in
    match
      if ok then float_of_string_opt (String.sub s start (!pos - start))
      else None
    with
    | Some v -> Number v
    | None -> raise (Err (start, "bad number"))
  in
  (* [depth] counts the arrays and objects enclosing the value *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> err "unexpected end of input"
    | Some ('{' | '[') when depth >= max_depth ->
      err (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Object []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> err "expected ',' or '}'"
        in
        members ();
        Object (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> err "expected ',' or ']'"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then err "trailing content";
    v
  with
  | v -> Ok v
  | exception Err (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Number v -> Buffer.add_string buf (number v)
    | String s -> add_string buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Object fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Number v -> Some v | _ -> None

let to_int = function
  | Number v when Float.is_integer v && Float.abs v <= 1e9 ->
    Some (int_of_float v)
  | _ -> None

let to_list = function List items -> Some items | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

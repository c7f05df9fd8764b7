(** The repository's one JSON codec.

    The repository is dependency-free by policy, so every JSON document
    it reads or writes goes through this small recursive-descent parser
    and printer: [/fit], [/predict] and [/observe] bodies, the metrics
    dump, the JSON log sink, OTLP payloads, tournament leaderboards and
    bench results.  Streaming writers that build their output in a
    [Buffer.t] call {!add_string} and {!number}, the only string
    escaper and number renderer in the code base.

    It supports the full JSON grammar except that numbers are always
    represented as [float] (fine for densities, hours and the handful
    of integer knobs the API accepts).  Numbers follow RFC 8259
    strictly: no leading [+], no leading zeros, digits on both sides
    of a [.]; anything else is a "bad number" at the number's first
    byte.  It depends on nothing else in [Obs], so [Obs] re-exports it
    as [Obs.Json]. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Object of (string * t) list

val max_depth : int
(** Deepest nesting of arrays and objects that {!parse} accepts (512).
    A client body is at most a few levels deep; the bound keeps a body
    of nothing but opening brackets from costing memory in proportion
    to its size. *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; trailing non-whitespace is an
    error.  [\u] escapes take exactly four hex digits; a surrogate
    pair decodes to one 4-byte UTF-8 code point and a lone surrogate is
    an error.  The error string carries a byte offset. *)

val to_string : t -> string
(** Compact rendering, numbers as by {!number}. *)

(** {2 Streaming primitives} *)

val add_string : Buffer.t -> string -> unit
(** Append [s] as a quoted JSON string literal.  Quote, backslash and
    bytes below [0x20] are escaped; every other byte passes through. *)

val number : float -> string
(** Render a float as a JSON number: [%.17g], which round-trips, and
    integral values therefore print without a fraction.  Non-finite
    values render as [null] (JSON has no NaN/Infinity). *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Field lookup; [None] when the value is not an object or lacks the
    field (a [Null] field is returned as [Some Null]). *)

val to_float : t -> float option
val to_int : t -> int option
(** [to_int] accepts only numbers that are exactly integral. *)

val to_list : t -> t list option
val to_string_opt : t -> string option

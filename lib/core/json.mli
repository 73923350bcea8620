(** The one JSON representation behind every machine-readable output:
    the analysis stack's [--json] reports, the Chrome trace and the
    [BENCH_*.json] files. Emitters build a {!t}; {!to_string} is the only
    printer and the only string escaper; {!parse} reads any of them back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Keys print in the order given. *)

val to_string : t -> string
(** Compact, with no whitespace. Strings escape the double quote,
    [\\], [\n], [\r] and [\t] by name, other bytes below 0x20 as
    [\u00XX], and each invalid UTF-8 sequence as the escape [\ufffd]
    (U+FFFD), so the output is always valid UTF-8. A finite float
    prints as the shorter of [%.15g] and [%.17g] that reads back to the
    same float, with [.0] appended when that spelling has neither a point
    nor an exponent (so it reads back as a float); a non-finite float
    prints as [null]. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [to_string v] and a newline to [path]. *)

val parse : string -> (t, string) result
(** Strict RFC 8259 reader of one value, with surrounding whitespace.
    Raw bytes inside strings must be valid UTF-8. A number with a
    fraction or an exponent is a [Float]; any other is an [Int] (a
    [Float] when it exceeds the int range). For every [v],
    [parse (to_string v)] is [Ok v] up to the printer's repairs:
    invalid UTF-8 becomes U+FFFD and non-finite floats become [Null]. *)

val member : string -> t -> t
(** [member k (Obj kvs)] is the value of the first [k] in [kvs];
    [Null] when [k] is absent or the value is not an object. *)

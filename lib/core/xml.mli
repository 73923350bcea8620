(** The XML boundary: one positioned lexer and one MSCCL-IR printer.

    The on-disk format follows the spirit of msccl's algorithm XML files:
    an [<algo>] root with per-GPU [<gpu>] elements containing [<tb>] thread
    blocks and [<step>] instructions. The only decoder of that format is
    [Msccl_interop.Ingest], which consumes this module's lexer events
    directly; writing an IR with {!to_string} then ingesting it yields a
    structurally identical IR, with one caveat: a [Custom] collective's
    postcondition is a function and cannot round-trip, so ingested custom
    collectives get a vacuous postcondition (shape-only) — built-in
    collectives round-trip exactly.

    {!lex} is the repo's hostile-input boundary. It makes one forward pass
    over a small XML subset (elements, attributes, comments, an optional
    BOM and declaration, no text nodes) and emits start/end events. Every
    element and attribute carries its 1-based [line:col] source position,
    and every failure raises a structured {!Parse_error} with the message,
    a file label, the exact position and the stack of open elements
    rendered ["<tag> at FILE:LINE:COL"] (the 0install [qdom] style).
    Attribute values decode the five named entities plus numeric character
    references ([&#NN;], [&#xNN;]); malformed or unknown entities and
    duplicate attributes are rejected with their source position. The
    open-element stack is explicit, so deep nesting costs heap, not OCaml
    stack. {!parse_tree} builds a tree from the same events. *)

type pos = { line : int; col : int }
(** 1-based source position. {!no_pos} ([0:0]) marks synthesized nodes. *)

val no_pos : pos

type tree = {
  tag : string;
  attrs : (string * string) list;  (** decoded values, in document order *)
  children : tree list;
  t_pos : pos;  (** position of the opening ['<'] *)
  t_attr_pos : (string * pos) list;  (** source position of each attribute *)
}

val el : string -> (string * string) list -> tree list -> tree
(** Synthesized node carrying {!no_pos}. *)

val attr_pos : tree -> string -> pos
(** Position of a named attribute, falling back to the element's. *)

type attr = { a_name : string; a_value : string; a_pos : pos }
(** One attribute of a start event: name, decoded value, and the position
    of its name. *)

type error = {
  e_message : string;
  e_file : string;  (** ["<string>"] when parsed from memory *)
  e_pos : pos;
  e_context : string list;
      (** Enclosing elements, innermost first, each rendered
          ["<tag> at FILE:LINE:COL"]. *)
}

exception Parse_error of error

val error_to_string : error -> string
(** ["FILE:LINE:COL: message"] followed by one ["  in <tag> at ..."] line
    per context frame. *)

val frame : file:string -> string -> pos -> string
(** ["<tag> at file:line:col"] (or ["<tag>"] at {!no_pos}). *)

val lex :
  ?file:string ->
  string ->
  on_start:(string -> pos -> attr list -> unit) ->
  on_end:(unit -> unit) ->
  unit
(** [lex s ~on_start ~on_end] reads one element (after an optional BOM,
    declaration and comments), demands end of input after it, and calls
    [on_start tag pos attrs] at each start tag (attributes in document
    order) and [on_end ()] at the matching end — right after [on_start]
    for ["/>"]. Raises {!Parse_error} with the exact position on failure;
    events already emitted for a failed document are to be discarded. *)

val parse_tree : ?file:string -> string -> tree
(** The tree of {!lex}'s events. Raises like {!lex}. *)

val tree_to_string : tree -> string
(** Prints with 2-space indentation and escaped attribute values, one
    element per line, no declaration and no final newline. *)

val unescape : string -> string
(** Decodes entity references in a bare fragment ([&amp;], [&lt;], [&gt;],
    [&quot;], [&apos;], [&#NN;], [&#xNN;]); raises {!Parse_error}
    positioned inside the fragment on malformed or unknown entities. *)

val to_string : Ir.t -> string
(** The IR's XML document: declaration, then the [<algo>] element laid
    out as {!tree_to_string} lays out a tree, then a newline. Written
    straight into one buffer. *)

val save : Ir.t -> string -> unit
(** [save ir path] writes {!to_string}'s document to the file. *)

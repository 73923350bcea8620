(** The one decoder of MSCCL XML: tolerant, diagnostics-collecting, and
    used for the repo's own files and for external ones alike.

    Real MSCCL programs come from the msccl-tools/TACCL toolchain in a
    dialect with extra attributes ([ngpus], [nchunksperloop],
    [nchannels], [outofplace], long opcode and buffer names...) and no
    ordering guarantees, and a production service must treat such files
    as untrusted input. This module is that boundary: a schema-validated
    decoder that

    - tolerates unknown attributes and unknown elements (warning
      diagnostics, never failures),
    - accepts attribute aliases and element reordering ([<gpu>]/[<tb>]
      blocks and [<step>]s are matched by their declared ids, not by
      document position),
    - defaults optional fields ([chan], [cnt], [hasdep], dependency
      lists...),
    - collects {e all} diagnostics in one pass instead of failing fast,
      each carrying the exact [FILE:LINE:COL] position and element
      context of its cause, and
    - runs post-decode semantic validation (rank/channel/step/dependency
      references in range, buffer bounds, send/recv pairing) before
      handing a certified {!Msccl_core.Ir.t} — one that passed
      {!Msccl_core.Ir.validate} — to the analysis pipeline.

    Decoding consumes {!Msccl_core.Xml.lex}'s start/end events directly:
    no tree is built, decoded elements keep only their positions, and
    context frames are rendered only for the diagnostics emitted.
    {!of_tree} replays a tree as the same events into the same decoder.
    What {!Msccl_core.Xml.to_string} prints ingests back with no
    diagnostic and [Ir.equal] to the printed IR.

    {!of_string} never raises on any input, hostile or otherwise: every
    rejection is a structured diagnostic (the [ingest] fuzz oracle holds
    it to that over seeded {!Mangle} corruptions). *)

open Msccl_core

type severity = Error | Warning

type diag = {
  d_severity : severity;
  d_rule : string;
      (** ["parse"], ["schema"], ["range"], ["pairing"], ["validate"]... *)
  d_message : string;
  d_file : string;
  d_pos : Xml.pos;
  d_context : string list;  (** enclosing elements, innermost first *)
}

val errors : diag list -> diag list

val warnings : diag list -> diag list

val diag_to_string : diag -> string
(** ["FILE:LINE:COL: severity[rule]: message"] plus one
    ["  in <tag> at ..."] line per context frame. *)

val diags_to_string : diag list -> string
(** All diagnostics, one per line group, in report order. *)

val diags_json : diag list -> Json.t
(** JSON array of
    [{"severity","rule","message","file","line","col","context"}] —
    the machine-readable shape [msccl verify/lint/analyze FILE --json]
    emit on unusable input (exit 2). *)

val of_string : ?file:string -> string -> (Ir.t * diag list, diag list) result
(** [Ok (ir, warnings)] on acceptance — [ir] passed semantic validation
    and {!Msccl_core.Ir.validate} — or [Error diags] with at least one
    [Error]-severity diagnostic. Decodes in the same pass as
    {!Msccl_core.Xml.lex}; a parse error becomes the single structured
    ["parse"] diagnostic. Never raises. *)

val of_tree : ?file:string -> Xml.tree -> (Ir.t * diag list, diag list) result
(** The {!of_string} decoder fed from a tree instead of the lexer: on a
    tree from {!Msccl_core.Xml.parse_tree}, the same result and the same
    diagnostics as {!of_string} on its source. *)

val load : string -> (Ir.t * diag list, diag list) result
(** Reads and ingests a file; unreadable files become a ["io"]
    diagnostic. Never raises. *)

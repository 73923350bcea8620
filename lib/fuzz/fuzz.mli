(** The fuzzer: random case generation and the run loop.

    One run is fully determined by its integer seed — every case gets its
    own {!Rng.fork}ed stream, so case [i] of seed [s] is the same program
    on every machine and OCaml version. A failing case is shrunk
    ({!Shrink.shrink}) and reported with both its original and minimized
    forms; saving the minimized form as a seed file under [test/corpus/]
    turns a fuzz finding into a permanent regression test. *)

val generate : seed:int -> index:int -> Case.t
(** The [index]-th case of run [seed]: random cluster shape (2–8 ranks),
    collective, routing strategy, ring permutation and compilation knobs.
    The result always satisfies {!Case.validate}. *)

type failure = {
  f_case : Case.t;  (** As generated. *)
  f_failure : Oracle.failure;
  f_shrunk : Case.t;  (** Minimized; equals [f_case] when nothing shrank. *)
  f_shrunk_failure : Oracle.failure;  (** The shrunk case's own failure. *)
}

type report = {
  r_seed : int;
  r_cases : int;
  r_oracles : Oracle.id list;
  r_failures : failure list;  (** In case order; empty = clean run. *)
}

val run :
  ?jobs:int ->
  ?mutate:(Msccl_core.Ir.t -> Msccl_core.Ir.t) ->
  ?oracles:Oracle.id list ->
  ?progress:(index:int -> Case.t -> Oracle.failure option -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  report
(** Generates and checks [cases] cases, shrinking every failure; never
    stops early. Cases fan out over {!Msccl_parallel.Pool} ([jobs]
    defaults to {!Msccl_parallel.Pool.default_jobs}); the report is
    identical for any job count. [progress] is called once per case in
    index order after the batch completes. [mutate] is threaded through
    to {!Oracle.run} and {!Shrink.shrink} — the mutation self-tests use
    it. *)

val replay : ?oracles:Oracle.id list -> Case.t -> (unit, Oracle.failure) result
(** Runs the oracle stack on a stored case (no shrinking, no mutation). *)

val report_json : report -> Msccl_core.Json.t
(** One JSON object: seed, case count, oracle names, and per-failure
    records (index, oracle, detail, original and shrunk case texts). *)

type corpus_outcome =
  | C_accepted of { c_warnings : int }
      (** Ingested cleanly and survived the hostile sweep. *)
  | C_rejected of { c_errors : int; c_first : string }
      (** Structurally rejected: every diagnostic positioned. *)
  | C_failed of string
      (** Invariant violation — an unstructured exception escaped, a
          rejection lacked a position, or an accepted program failed to
          round-trip. These are the fuzzer's findings. *)

type corpus_entry = {
  ce_path : string;
  ce_outcome : corpus_outcome;
}

type corpus_report = {
  cr_dir : string;
  cr_seed : int;
  cr_mangles : int;
  cr_entries : corpus_entry list;  (** In path order. *)
}

val corpus_ok : corpus_report -> bool
(** No [C_failed] entries. Accepted and rejected files are both fine —
    a corpus of bad inputs is {e supposed} to be rejected. *)

val run_corpus :
  ?jobs:int -> ?mangles:int -> seed:int -> dir:string -> unit -> corpus_report
(** Imported-corpus mode ([msccl fuzz --corpus DIR]): every [*.xml] file
    under [dir] is pushed through {!Msccl_interop.Ingest} and must either
    ingest cleanly — then also survive [mangles] seeded
    {!Msccl_interop.Mangle} corruptions and round-trip through print —
    or be rejected with positioned structured diagnostics. Files fan out
    over {!Msccl_parallel.Pool}. *)

val corpus_report_json : corpus_report -> Msccl_core.Json.t
(** One JSON object: dir, seed, mangle count, overall ok, and a
    per-file status/detail record. *)

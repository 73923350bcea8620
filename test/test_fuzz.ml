(* Fuzzer tests: a fixed-seed smoke run through all five oracles, replay
   of the checked-in corpus, serialization and determinism properties of
   the generator, and the mutation self-test (a deliberately broken
   fusion rule must be caught and shrunk to a tiny case). *)

open Msccl_core
module F = Msccl_fuzz

let failure_str f = Format.asprintf "%a" F.Oracle.pp_failure f

(* ------------------------------------------------------------------ *)
(* Smoke: seed 42 must be clean on a healthy compiler                  *)
(* ------------------------------------------------------------------ *)

let test_smoke () =
  let report = F.Fuzz.run ~seed:42 ~cases:100 () in
  match report.F.Fuzz.r_failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "case %d (%s) failed: %s" f.F.Fuzz.f_case.F.Case.index
        (F.Case.describe f.F.Fuzz.f_case)
        (failure_str f.F.Fuzz.f_failure)

(* ------------------------------------------------------------------ *)
(* Corpus replay: every checked-in seed file passes all oracles        *)
(* ------------------------------------------------------------------ *)

(* dune runtest runs tests in the test directory; dune exec from the
   repo root. *)
let corpus_dir () =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  let dir = corpus_dir () in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".case")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let test_corpus () =
  let files = corpus_files () in
  if List.length files < 5 then
    Alcotest.failf "corpus too small: %d file(s)" (List.length files);
  List.iter
    (fun path ->
      match F.Case.load path with
      | Error m -> Alcotest.failf "%s: %s" path m
      | Ok c -> (
          match F.Fuzz.replay c with
          | Ok () -> ()
          | Error f -> Alcotest.failf "%s: %s" path (failure_str f)))
    files

(* ------------------------------------------------------------------ *)
(* Generator properties                                                *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  for index = 0 to 49 do
    let a = F.Fuzz.generate ~seed:7 ~index in
    let b = F.Fuzz.generate ~seed:7 ~index in
    if a <> b then Alcotest.failf "case %d not deterministic" index
  done;
  (* Different seeds give different case streams. *)
  let distinct = ref false in
  for index = 0 to 9 do
    if F.Fuzz.generate ~seed:7 ~index <> F.Fuzz.generate ~seed:8 ~index then
      distinct := true
  done;
  if not !distinct then Alcotest.fail "seeds 7 and 8 generate identically"

let test_case_roundtrip () =
  for index = 0 to 99 do
    let c = F.Fuzz.generate ~seed:3 ~index in
    match F.Case.of_string (F.Case.to_string c) with
    | Error m -> Alcotest.failf "case %d does not parse back: %s" index m
    | Ok c' ->
        if c <> c' then
          Alcotest.failf "case %d changed across to_string/of_string: %s"
            index (F.Case.describe c)
  done

let test_case_validation_rejects () =
  let base = F.Fuzz.generate ~seed:1 ~index:0 in
  let bad_ring = { base with F.Case.ring = [ 0; 0 ] } in
  (match F.Case.validate bad_ring with
  | Ok () -> Alcotest.fail "duplicate ring accepted"
  | Error _ -> ());
  match
    F.Case.of_string
      "# msccl fuzz case v1\nseed=0\nindex=0\nnodes=1\ngpus=2\n"
  with
  | Ok _ -> Alcotest.fail "truncated seed file accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Mutation self-test: the oracles must catch a broken fusion rule and *)
(* the shrinker must minimize what they caught                         *)
(* ------------------------------------------------------------------ *)

let max_steps_per_tb ir =
  Array.fold_left
    (fun acc (g : Ir.gpu) ->
      Array.fold_left
        (fun acc (tb : Ir.tb) -> max acc (Array.length tb.Ir.steps))
        acc g.Ir.tbs)
    0 ir.Ir.gpus

let test_mutation_caught_and_shrunk () =
  let report =
    F.Fuzz.run ~mutate:F.Mutate.break_fusion ~seed:42 ~cases:50 ()
  in
  (match report.F.Fuzz.r_failures with
  | [] -> Alcotest.fail "broken fusion rule not caught by any oracle"
  | _ -> ());
  List.iter
    (fun (f : F.Fuzz.failure) ->
      let s = f.F.Fuzz.f_shrunk in
      (* Shrinking must stay on the oracle that originally fired. *)
      if
        f.F.Fuzz.f_shrunk_failure.F.Oracle.oracle
        <> f.F.Fuzz.f_failure.F.Oracle.oracle
      then
        Alcotest.failf "case %d: shrink wandered from %s to %s"
          f.F.Fuzz.f_case.F.Case.index
          (F.Oracle.id_name f.F.Fuzz.f_failure.F.Oracle.oracle)
          (F.Oracle.id_name f.F.Fuzz.f_shrunk_failure.F.Oracle.oracle);
      (* The acceptance bar: tiny replayable cases. *)
      if F.Case.num_ranks s > 4 then
        Alcotest.failf "case %d shrunk to %d ranks (%s)"
          f.F.Fuzz.f_case.F.Case.index (F.Case.num_ranks s)
          (F.Case.describe s);
      let steps = max_steps_per_tb (F.Case.compile s) in
      if steps > 4 then
        Alcotest.failf "case %d shrunk to %d steps per thread block (%s)"
          f.F.Fuzz.f_case.F.Case.index steps (F.Case.describe s);
      (* Without the mutation the shrunk case is healthy — the failure
         really is the injected bug, not a shrinker artifact. *)
      match F.Fuzz.replay s with
      | Ok () -> ()
      | Error fl ->
          Alcotest.failf "case %d: shrunk case fails unmutated: %s"
            f.F.Fuzz.f_case.F.Case.index (failure_str fl))
    report.F.Fuzz.r_failures

let test_mutation_report_json () =
  let report =
    F.Fuzz.run ~mutate:F.Mutate.break_fusion ~oracles:[ F.Oracle.Exec ]
      ~seed:42 ~cases:40 ()
  in
  let json = Testutil.reparse (F.Fuzz.report_json report) in
  (* The clean/dirty bit must reflect the failures list. *)
  Alcotest.(check bool) "ok = no failures" true
    (Json.member "ok" json = Json.Bool (report.F.Fuzz.r_failures = []));
  match Json.member "failures" json with
  | Json.List fs ->
      Alcotest.(check int) "one record per failure"
        (List.length report.F.Fuzz.r_failures)
        (List.length fs)
  | _ -> Alcotest.fail "no failures array"

(* ------------------------------------------------------------------ *)
(* Oracle sharpness: each oracle fires on a tailored corruption        *)
(* ------------------------------------------------------------------ *)

let test_static_oracle_fires () =
  (* Dropping a depends edge from compiled output creates a race the
     static oracle must flag. The Nop-ification of a receive breaks
     connection balance, which Verify/Lint must flag too. *)
  let c =
    match
      F.Case.load
        (Filename.concat (corpus_dir ()) "allreduce-ring-permuted.case")
    with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let strip_deps (ir : Ir.t) =
    {
      ir with
      Ir.gpus =
        Array.map
          (fun (g : Ir.gpu) ->
            {
              g with
              Ir.tbs =
                Array.map
                  (fun (tb : Ir.tb) ->
                    {
                      tb with
                      Ir.steps =
                        Array.map
                          (fun (st : Ir.step) ->
                            { st with Ir.depends = [] })
                          tb.Ir.steps;
                    })
                  g.Ir.tbs;
            })
          ir.Ir.gpus;
    }
  in
  match
    F.Oracle.run ~mutate:strip_deps ~oracles:[ F.Oracle.Static ] c
  with
  | Ok () -> Alcotest.fail "static oracle missed stripped dependencies"
  | Error f ->
      Alcotest.(check bool)
        "static oracle attribution" true
        (f.F.Oracle.oracle = F.Oracle.Static)

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Testutil.tc "smoke seed 42 x100 clean" test_smoke;
          Testutil.tc "corpus replays clean" test_corpus;
          Testutil.tc "generator deterministic" test_generator_deterministic;
          Testutil.tc "case serialization round-trips" test_case_roundtrip;
          Testutil.tc "validation rejects bad cases"
            test_case_validation_rejects;
          Testutil.tc "broken fusion caught and shrunk"
            test_mutation_caught_and_shrunk;
          Testutil.tc "json report well-formed" test_mutation_report_json;
          Testutil.tc "static oracle fires on stripped deps"
            test_static_oracle_fires;
        ] );
    ]

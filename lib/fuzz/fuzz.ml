module T = Msccl_topology

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let gen_coll rng strategy num_ranks =
  let root () = Rng.int rng num_ranks in
  match strategy with
  | Case.Ring -> (
      match Rng.int rng 4 with
      | 0 -> Case.Allgather
      | 1 -> Case.Allreduce
      | 2 -> Case.Reduce_scatter
      | _ -> Case.Broadcast (root ()))
  | Case.Direct -> (
      match Rng.int rng 6 with
      | 0 -> Case.Allgather
      | 1 -> Case.Alltoall
      | 2 -> Case.Alltonext
      | 3 -> Case.Broadcast (root ())
      | 4 -> Case.Scatter (root ())
      | _ -> Case.Gather (root ()))

let generate ~seed ~index =
  let rng = Rng.fork (Rng.create seed) index in
  let nodes = 1 + Rng.int rng 2 in
  let gpus_per_node = 2 + Rng.int rng 3 in
  let num_ranks = nodes * gpus_per_node in
  let strategy = if Rng.bool rng then Case.Ring else Case.Direct in
  let coll = gen_coll rng strategy num_ranks in
  let chunk_factor =
    match coll with
    | Case.Allreduce -> num_ranks
    | Case.Alltoall | Case.Scatter _ | Case.Gather _ -> 1 + Rng.int rng 2
    | Case.Allgather | Case.Reduce_scatter | Case.Alltonext
    | Case.Broadcast _ ->
        1 + Rng.int rng 3
  in
  let channels = 1 + Rng.int rng 2 in
  let c =
    {
      Case.seed;
      index;
      nodes;
      gpus_per_node;
      coll;
      strategy;
      ring = Rng.shuffle rng (List.init num_ranks Fun.id);
      chunk_factor;
      channels;
      chan_rot = Rng.int rng channels;
      proto = Rng.pick rng T.Protocol.all;
      fuse = Rng.bool rng;
      instances = 1 + Rng.int rng 2;
      aggregate = strategy = Case.Direct && Rng.bool rng;
      detour = strategy = Case.Direct && Rng.bool rng;
    }
  in
  (match Case.validate c with
  | Ok () -> ()
  | Error m ->
      invalid_arg
        (Printf.sprintf "Fuzz.generate: seed %d case %d invalid: %s" seed
           index m));
  c

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

type failure = {
  f_case : Case.t;
  f_failure : Oracle.failure;
  f_shrunk : Case.t;
  f_shrunk_failure : Oracle.failure;
}

type report = {
  r_seed : int;
  r_cases : int;
  r_oracles : Oracle.id list;
  r_failures : failure list;
}

(* Each case is generated from (seed, index) alone and the oracles touch
   no shared state, so cases fan out over the domain pool. The pool keeps
   results in index order, making the report identical for any job
   count. *)
let run_case ?mutate ~oracles ~seed index =
  let c = generate ~seed ~index in
  match Oracle.run ?mutate ~oracles c with
  | Ok () -> (c, None)
  | Error f ->
      let shrunk = Shrink.shrink ?mutate ~oracle:f.Oracle.oracle c in
      let shrunk_failure =
        match Oracle.run ?mutate ~oracles:[ f.Oracle.oracle ] shrunk with
        | Error sf -> sf
        | Ok () ->
            (* The shrinker only accepts still-failing candidates, so the
               original case must have reached here unshrunk. *)
            f
      in
      ( c,
        Some
          {
            f_case = c;
            f_failure = f;
            f_shrunk = shrunk;
            f_shrunk_failure = shrunk_failure;
          } )

let run ?jobs ?mutate ?(oracles = Oracle.all) ?progress ~seed ~cases () =
  let results =
    Msccl_parallel.Pool.map ?jobs
      (run_case ?mutate ~oracles ~seed)
      (List.init cases Fun.id)
  in
  (match progress with
  | Some p ->
      List.iteri
        (fun index (c, fo) ->
          p ~index c (Option.map (fun f -> f.f_failure) fo))
        results
  | None -> ());
  {
    r_seed = seed;
    r_cases = cases;
    r_oracles = oracles;
    r_failures = List.filter_map snd results;
  }

let replay ?(oracles = Oracle.all) c = Oracle.run ~oracles c

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

let report_json r =
  let open Msccl_core.Json in
  let failure f =
    Obj
      [ ("index", Int f.f_case.Case.index);
        ("oracle", String (Oracle.id_name f.f_failure.Oracle.oracle));
        ("detail", String f.f_failure.Oracle.detail);
        ("case", String (Case.to_string f.f_case));
        ("shrunk", String (Case.to_string f.f_shrunk));
        ("shrunk_detail", String f.f_shrunk_failure.Oracle.detail) ]
  in
  Obj
    [ ("seed", Int r.r_seed); ("cases", Int r.r_cases);
      ( "oracles",
        List (List.map (fun o -> String (Oracle.id_name o)) r.r_oracles) );
      ("ok", Bool (r.r_failures = []));
      ("failures", List (List.map failure r.r_failures)) ]

(* ------------------------------------------------------------------ *)
(* Imported-corpus mode: hostile-input checks over external XML        *)
(* ------------------------------------------------------------------ *)

type corpus_outcome =
  | C_accepted of { c_warnings : int }
  | C_rejected of { c_errors : int; c_first : string }
  | C_failed of string

type corpus_entry = {
  ce_path : string;
  ce_outcome : corpus_outcome;
}

type corpus_report = {
  cr_dir : string;
  cr_seed : int;
  cr_mangles : int;
  cr_entries : corpus_entry list;
}

let corpus_ok r =
  List.for_all
    (fun e -> match e.ce_outcome with C_failed _ -> false | _ -> true)
    r.cr_entries

(* A rejection is only acceptable when it is structured: at least one
   error-severity diagnostic, every one positioned (io errors excepted). *)
let check_rejection ds =
  let module I = Msccl_interop.Ingest in
  match I.errors ds with
  | [] -> Error "rejected with no error-severity diagnostics"
  | errs -> (
      match
        List.find_opt
          (fun d ->
            d.I.d_rule <> "io" && d.I.d_pos.Msccl_core.Xml.line < 1)
          errs
      with
      | Some d ->
          Error
            (Printf.sprintf "rejection without a position: %s"
               (I.diag_to_string d))
      | None -> Ok errs)

let corpus_check_file ~seed ~mangles path =
  let module I = Msccl_interop.Ingest in
  let module M = Msccl_interop.Mangle in
  let module X = Msccl_core.Xml in
  let outcome =
    match I.load path with
    | exception e ->
        C_failed
          (Printf.sprintf "unstructured exception escaped ingestion: %s"
             (Printexc.to_string e))
    | Error ds -> (
        match check_rejection ds with
        | Error m -> C_failed m
        | Ok errs ->
            C_rejected
              {
                c_errors = List.length errs;
                c_first = I.diag_to_string (List.hd errs);
              })
    | Ok (ir, ws) -> (
        (* Accepted: must round-trip, and seeded corruptions of the
           document must be handled structurally. *)
        let doc = X.to_string ir in
        match I.of_string ~file:path doc with
        | exception e ->
            C_failed
              (Printf.sprintf "re-ingesting the accepted print raised: %s"
                 (Printexc.to_string e))
        | Error ds ->
            C_failed
              (Printf.sprintf "accepted file's print was rejected: %s"
                 (match I.errors ds with
                 | d :: _ -> I.diag_to_string d
                 | [] -> "(no diagnostics)"))
        | Ok (ir2, _) when not (Msccl_core.Ir.equal ir ir2) ->
            C_failed "accepted file does not round-trip through print"
        | Ok _ -> (
            let rec sweep i =
              if i >= mangles then None
              else
                let mangled, what = M.mangle ~seed ~index:i doc in
                let tag = Printf.sprintf "mangle %d (%s)" i what in
                match I.of_string ~file:path mangled with
                | exception e ->
                    Some
                      (Printf.sprintf
                         "%s: unstructured exception escaped: %s" tag
                         (Printexc.to_string e))
                | Error ds -> (
                    match check_rejection ds with
                    | Error m -> Some (Printf.sprintf "%s: %s" tag m)
                    | Ok _ -> sweep (i + 1))
                | Ok (ir', _) -> (
                    match I.of_string ~file:path (X.to_string ir') with
                    | Ok (ir2, _) when Msccl_core.Ir.equal ir' ir2 ->
                        sweep (i + 1)
                    | Ok _ ->
                        Some
                          (Printf.sprintf
                             "%s: accepted repair does not round-trip" tag)
                    | Error _ ->
                        Some
                          (Printf.sprintf
                             "%s: accepted repair rejected on reprint" tag)
                    | exception e ->
                        Some
                          (Printf.sprintf "%s: reprint raised: %s" tag
                             (Printexc.to_string e)))
            in
            match sweep 0 with
            | Some m -> C_failed m
            | None -> C_accepted { c_warnings = List.length ws }))
  in
  { ce_path = path; ce_outcome = outcome }

let run_corpus ?jobs ?(mangles = 8) ~seed ~dir () =
  let files =
    match Sys.readdir dir with
    | entries ->
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".xml")
        |> List.sort compare
        |> List.map (Filename.concat dir)
    | exception Sys_error _ -> []
  in
  let entries =
    Msccl_parallel.Pool.map ?jobs (corpus_check_file ~seed ~mangles) files
  in
  { cr_dir = dir; cr_seed = seed; cr_mangles = mangles; cr_entries = entries }

let corpus_report_json r =
  let open Msccl_core.Json in
  let entry e =
    let status, detail =
      match e.ce_outcome with
      | C_accepted { c_warnings } ->
          ("accepted", Printf.sprintf "%d warning(s)" c_warnings)
      | C_rejected { c_errors; c_first } ->
          ("rejected", Printf.sprintf "%d error(s); first: %s" c_errors c_first)
      | C_failed m -> ("failed", m)
    in
    Obj
      [ ("file", String e.ce_path); ("status", String status);
        ("detail", String detail) ]
  in
  Obj
    [ ("dir", String r.cr_dir); ("seed", Int r.cr_seed);
      ("mangles", Int r.cr_mangles); ("ok", Bool (corpus_ok r));
      ("files", List (List.map entry r.cr_entries)) ]

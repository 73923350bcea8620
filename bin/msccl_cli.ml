(* msccl — command-line front end for the MSCCLang compiler, verifier and
   cluster simulator.

   Subcommands:
     list        show available algorithms and topologies
     compile     compile an algorithm to MSCCL-IR XML
     verify      check an MSCCL-IR XML file
     lint        static analysis: races + structural rules
     analyze     performance analysis: lower-bound certificate + perf lints
     show        pretty-print an MSCCL-IR XML file
     simulate    run an algorithm or XML file on a simulated cluster
     fuzz        differential fuzzing against the oracle stack
     chaos       fault-sweep campaigns: degradation curves + hang verdicts
     figures     regenerate the paper's figures *)

open Cmdliner
module T = Msccl_topology
module H = Msccl_harness
open Msccl_core

let ok = 0

let user_error = 1

(* lint/verify distinguish what CI needs to distinguish: findings (the IR
   is wrong) exit 1, while unusable input (parse errors, unknown
   algorithms) exits 2. *)
let finding_error = 1

let input_error = 2

(* External XML enters through the tolerant Ingest boundary: attribute
   aliases and reordering are accepted, warnings go to stderr, and a
   rejection prints every positioned diagnostic (JSON on [--json]) so a
   third-party file is debuggable from one run. *)
let print_json j = print_endline (Json.to_string j)

let ingest_file ?(json = false) f =
  let module I = Msccl_interop.Ingest in
  match I.load f with
  | Ok (ir, warns) ->
      List.iter (fun d -> prerr_endline (I.diag_to_string d)) warns;
      Some ir
  | Error ds ->
      if json then print_json (I.diags_json ds)
      else prerr_endline (I.diags_to_string ds);
      None

(* ------------------------------------------------------------------ *)
(* Shared argument definitions                                         *)
(* ------------------------------------------------------------------ *)

let algo_arg =
  let doc = "Algorithm name (see $(b,msccl list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ALGO" ~doc)

let nodes_arg =
  let doc = "Number of nodes." in
  Arg.(value & opt int 1 & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let gpus_arg =
  let doc = "GPUs per node." in
  Arg.(value & opt int 8 & info [ "gpus"; "g" ] ~docv:"G" ~doc)

let channels_arg =
  let doc = "Channels to distribute logical rings over." in
  Arg.(value & opt int 1 & info [ "channels"; "c" ] ~docv:"CH" ~doc)

let instances_arg =
  let doc = "Whole-program parallelization factor (the figures' r)." in
  Arg.(value & opt int 1 & info [ "instances"; "r" ] ~docv:"R" ~doc)

let chunk_factor_arg =
  let doc = "Chunk granularity where the algorithm supports it." in
  Arg.(value & opt int 1 & info [ "chunk-factor" ] ~docv:"C" ~doc)

let proto_conv =
  let parse s =
    match T.Protocol.of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  Arg.conv (parse, T.Protocol.pp)

let proto_arg =
  let doc = "Protocol: Simple, LL, LL128 or SCCL." in
  Arg.(value & opt proto_conv T.Protocol.Simple
       & info [ "proto"; "p" ] ~docv:"PROTO" ~doc)

let no_verify_arg =
  let doc = "Skip postcondition verification (faster for large systems)." in
  Arg.(value & flag & info [ "no-verify" ] ~doc)

let topo_arg =
  let doc = "Topology: ndv4:<nodes>, dgx2:<nodes>, dgx1, custom:<n>:<g>." in
  Arg.(value & opt string "ndv4:1" & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)

let size_conv =
  let parse s =
    let num, unit_ =
      let n = String.length s in
      let split =
        let rec go i =
          if i < n && (s.[i] = '.' || (s.[i] >= '0' && s.[i] <= '9')) then
            go (i + 1)
          else i
        in
        go 0
      in
      (String.sub s 0 split, String.sub s split (n - split))
    in
    match
      ( float_of_string_opt num,
        String.uppercase_ascii (String.trim unit_) )
    with
    | Some v, ("" | "B") -> Ok v
    | Some v, ("K" | "KB") -> Ok (v *. 1024.)
    | Some v, ("M" | "MB") -> Ok (v *. 1024. *. 1024.)
    | Some v, ("G" | "GB") -> Ok (v *. 1024. *. 1024. *. 1024.)
    | _ -> Error (`Msg (Printf.sprintf "cannot parse size %S" s))
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (H.Sweep.pretty v))

let size_arg =
  let doc = "Buffer size, e.g. 32MB." in
  Arg.(value & opt size_conv (1024. *. 1024.) & info [ "size"; "s" ] ~docv:"SIZE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel sweeps (registry sweeps, fuzz batches). \
     Defaults to $(b,MSCCL_JOBS) when set, else the runtime's recommended \
     domain count. Output is identical for any value; 1 disables \
     parallelism."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON on stdout instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* What verify, lint and analyze run on: an XML file, a registered
   algorithm compiled in-process, or the whole-registry sweep. *)
type input = File of string | Algo of string | All | No_input

let input_arg ~all_doc =
  let file =
    let doc = "MSCCL-IR XML file." in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let algo =
    let doc = "A registered algorithm, compiled in-process, instead of a \
               file." in
    Arg.(value & opt (some string) None & info [ "algo"; "a" ] ~docv:"ALGO"
           ~doc)
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:all_doc) in
  let pick all file algo =
    match (all, file, algo) with
    | true, _, _ -> All
    | false, Some f, _ -> File f
    | false, None, Some a -> Algo a
    | false, None, None -> No_input
  in
  Term.(const pick $ all $ file $ algo)

let build_params nodes gpus channels instances proto chunk_factor no_verify =
  {
    H.Registry.nodes;
    gpus_per_node = gpus;
    channels;
    instances;
    proto;
    chunk_factor;
    verify = not no_verify;
  }

(* Looks up a registered algorithm and runs [build] on it, turning the
   compiler's rejections of bad parameters into one-line messages. *)
let build_spec name build =
  match H.Registry.find name with
  | None ->
      Error
        (Printf.sprintf "unknown algorithm %S; try: %s" name
           (String.concat ", " (H.Registry.names ())))
  | Some spec -> (
      try Ok (build spec) with
      | Program.Trace_error m -> Error ("trace error: " ^ m)
      | Schedule.Scheduling_error m -> Error ("scheduling error: " ^ m)
      | Instances.Replication_error m
      | Failure m
      | Invalid_argument m ->
          Error m)

let build_ir name params =
  build_spec name (fun spec -> spec.H.Registry.build params)

(* Resolves a FILE or --algo input to IR (building algorithms with
   [params]) and runs [k] on it; unusable input exits 2. *)
let with_ir ~json ~params input k =
  match input with
  | File f -> (
      match ingest_file ~json f with Some ir -> k ir | None -> input_error)
  | Algo a -> (
      match build_ir a params with
      | Ok ir -> k ir
      | Error msg ->
          prerr_endline msg;
          input_error)
  | All | No_input ->
      prerr_endline "need an XML file, --algo NAME, or --all";
      input_error

(* One registry-sweep entry of lint/analyze --all --json. *)
let sweep_entry algo (c : H.Lint_sweep.config) fields =
  Json.(
    Obj
      (("algo", String algo) :: ("topology", String c.H.Lint_sweep.c_label)
       :: ("proto", String (T.Protocol.name c.H.Lint_sweep.c_proto))
       :: fields))

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    print_endline "Algorithms:";
    List.iter
      (fun s ->
        Printf.printf "  %-24s %s\n" s.H.Registry.name s.H.Registry.doc)
      H.Registry.all;
    print_endline "";
    print_endline "Topologies: ndv4:<nodes>  dgx2:<nodes>  dgx1  custom:<nodes>:<gpus>";
    print_endline "Protocols:  Simple  LL  LL128  SCCL";
    ok
  in
  Cmd.v (Cmd.info "list" ~doc:"List algorithms, topologies and protocols")
    Term.(const run $ const ())

(* Symmetry-aware build: trace only the representative slice, replicate
   by index arithmetic, certify the hint's permutation post hoc. Output
   is the same IR as [build_ir] (a failed certification silently falls
   back to the full pipeline), only compile cost changes. *)
let build_ir_sym algo params =
  build_spec algo (fun spec ->
      match spec.H.Registry.sym with
      | None ->
          Printf.eprintf
            "%s declares no symmetry hint; using the full pipeline\n" algo;
          spec.H.Registry.build params
      | Some case ->
          let c = case params in
          let report, outcome =
            Msccl_analysis.Sym_compile.compile ~name:c.H.Registry.sym_name
              ~proto:params.H.Registry.proto
              ~instances:params.H.Registry.instances
              ~verify:params.H.Registry.verify ~hint:c.H.Registry.sym_hint
              c.H.Registry.sym_coll c.H.Registry.sym_program
          in
          (match outcome with
          | Msccl_analysis.Sym_compile.Replicated s ->
              Printf.eprintf
                "symmetry-aware compile: replicated (certified %s, %d \
                 orbit(s))\n"
                (match s.Msccl_analysis.Symmetry.s_generators with
                | g :: _ -> g.Msccl_analysis.Symmetry.g_name
                | [] -> "?")
                (Orbit.num_orbits s.Msccl_analysis.Symmetry.s_orbit)
          | Msccl_analysis.Sym_compile.Fell_back m ->
              Printf.eprintf "symmetry-aware compile fell back: %s\n" m);
          report.Compile.ir)

let compile_cmd =
  let output_arg =
    let doc = "Write MSCCL-IR XML here (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"FILE" ~doc)
  in
  let lint_arg =
    let doc = "Run the static analysis suite on the compiled IR; error \
               findings fail the compile." in
    Arg.(value & flag & info [ "lint" ] ~doc)
  in
  let sym_arg =
    let doc =
      "Symmetry-aware compilation: trace one representative rank, \
       replicate the schedule to all ranks by index arithmetic, and \
       certify the algorithm's declared rank symmetry on the result. \
       Same IR as the full pipeline (falls back automatically if the \
       hint fails certification), compiled in O(instructions/ranks)."
    in
    Arg.(value & flag & info [ "sym-compile" ] ~doc)
  in
  let run algo nodes gpus channels instances proto chunk_factor no_verify
      lint sym_compile output =
    let params =
      build_params nodes gpus channels instances proto chunk_factor no_verify
    in
    match (if sym_compile then build_ir_sym else build_ir) algo params with
    | Error msg ->
        prerr_endline msg;
        user_error
    | Ok ir ->
        let diagnostics = if lint then Lint.run ir else [] in
        if diagnostics <> [] then Format.eprintf "%a" Lint.pp diagnostics;
        if Lint.has_errors diagnostics then finding_error
        else begin
          Printf.eprintf "%s\n" (Ir.summary ir);
          match output with
          | None ->
              Xml.output stdout ir;
              ok
          | Some path ->
              Xml.save ir path;
              Printf.eprintf "wrote %s\n" path;
              ok
        end
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile an algorithm to MSCCL-IR XML")
    Term.(
      const run $ algo_arg $ nodes_arg $ gpus_arg $ channels_arg
      $ instances_arg $ proto_arg $ chunk_factor_arg $ no_verify_arg
      $ lint_arg $ sym_arg $ output_arg)

let xml_file_arg =
  let doc = "MSCCL-IR XML file." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let verify_cmd =
  let static_arg =
    let doc =
      "Use the static chunk-provenance dataflow verifier instead of \
       symbolic execution: abstract interpretation classifies every wrong \
       output slot (missing / duplicated contribution, \
       overwritten-before-read, never-written...) with the instruction \
       that caused it, and runs the dataflow liveness lints. Inferred \
       rank symmetries quotient the pass to representative ranks."
    in
    Arg.(value & flag & info [ "static" ] ~doc)
  in
  let mode_string = function
    | Msccl_analysis.Provenance.Full -> "full"
    | Msccl_analysis.Provenance.Quotient { orbits; interpreted_ranks } ->
        Printf.sprintf "quotient (%d orbit(s), %d rank(s) interpreted)"
          orbits interpreted_ranks
  in
  let static_one ~json ir =
    let s = Msccl_analysis.Symmetry.infer ir in
    let r = Msccl_analysis.Provenance.analyze ~symmetry:s ir in
    let open Msccl_analysis.Provenance in
    if json then print_json (report_json r)
    else begin
      if r.r_diags = [] then
        Printf.printf
          "%s: OK (static provenance, %s mode; %d step(s) interpreted, %d \
           output slot(s) checked)\n"
          (Ir.summary ir) (mode_string r.r_mode) r.r_steps_interpreted
          r.r_slots_checked
      else begin
        Printf.eprintf "%s: FAILED (static provenance, %s mode)\n"
          (Ir.summary ir) (mode_string r.r_mode);
        List.iter
          (fun d -> Format.eprintf "  %a@." pp_diag d)
          r.r_diags
      end;
      if r.r_lints <> [] then Format.printf "%a" Lint.pp r.r_lints
    end;
    if r.r_diags <> [] || Lint.has_errors r.r_lints then finding_error
    else ok
  in
  let static_sweep ~json () =
    let results =
      List.concat_map
        (fun spec ->
          List.filter_map
            (fun (nodes, gpus) ->
              match
                spec.H.Registry.build
                  { H.Registry.default_params with nodes; gpus_per_node = gpus }
              with
              | exception _ -> None (* shape unsupported by this algorithm *)
              | ir ->
                  let s = Msccl_analysis.Symmetry.infer ir in
                  Some
                    ( spec.H.Registry.name, nodes, gpus,
                      Msccl_analysis.Provenance.analyze ~symmetry:s ir ))
            [ (1, 8); (2, 4) ])
        H.Registry.all
    in
    let open Msccl_analysis.Provenance in
    let failed r = r.r_diags <> [] || Lint.has_errors r.r_lints in
    let entry (name, nodes, gpus, r) =
      Json.(
        Obj
          [ ("algo", String name); ("nodes", Int nodes); ("gpus", Int gpus);
            ("report", report_json r) ])
    in
    if json then print_json (Json.List (List.map entry results))
    else
      List.iter
        (fun (name, nodes, gpus, r) ->
          Printf.printf "%-24s %dx%d  %-9s %s\n" name nodes gpus
            (if failed r then "FAILED" else "ok")
            (mode_string r.r_mode);
          if failed r then
            List.iter (fun d -> Format.printf "  %a@." pp_diag d) r.r_diags)
        results;
    if List.exists (fun (_, _, _, r) -> failed r) results then finding_error
    else ok
  in
  let run input static json =
    match input with
    | All when static -> static_sweep ~json ()
    | All ->
        prerr_endline "--all requires --static";
        input_error
    | input ->
        with_ir ~json ~params:H.Registry.default_params input (fun ir ->
            if static then static_one ~json ir
            else
              match Verify.check ir with
              | Ok () ->
                  if json then print_json (Json.List [])
                  else
                    Printf.printf
                      "%s: OK (postcondition, deadlock-freedom, structure)\n"
                      (Ir.summary ir);
                  ok
              | Error msg ->
                  let d =
                    { Lint.d_rule = "verify"; d_severity = Lint.Error;
                      d_at = None; d_message = msg }
                  in
                  if json then print_json (Lint.to_json [ d ])
                  else
                    Printf.eprintf "%s: FAILED\n  %s\n" (Ir.summary ir) msg;
                  finding_error)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Verify an MSCCL-IR XML file: symbolic execution against the \
          collective's postcondition by default, or ($(b,--static)) the \
          chunk-provenance dataflow verifier with root-cause diagnostics \
          and liveness lints. Exit 1 on findings, 2 on unusable input.")
    Term.(
      const run
      $ input_arg
          ~all_doc:
            "With $(b,--static): sweep every registered algorithm through \
             the provenance verifier (single-node and two-node shapes)."
      $ static_arg $ json_arg)

let lint_cmd =
  let lint_one ~json ir =
    let ds = Lint.run ir in
    if json then print_json (Lint.to_json ds)
    else Format.printf "%s@.%a" (Ir.summary ir) Lint.pp ds;
    if Lint.has_errors ds then finding_error else ok
  in
  let sweep ~json ?jobs () =
    let entries = H.Lint_sweep.run ?jobs () in
    if json then begin
      let one (e : H.Lint_sweep.entry) =
        let status, diags =
          match e.H.Lint_sweep.e_outcome with
          | H.Lint_sweep.Clean _ -> ("clean", [])
          | H.Lint_sweep.Findings ds -> ("errors", ds)
          | H.Lint_sweep.Build_failed _ -> ("skipped", [])
        in
        sweep_entry e.H.Lint_sweep.e_algo e.H.Lint_sweep.e_config
          Json.
            [ ("status", String status); ("diagnostics", Lint.to_json diags) ]
      in
      print_json (Json.List (List.map one entries))
    end
    else Format.printf "%a@." H.Lint_sweep.pp entries;
    List.iter
      (fun (e : H.Lint_sweep.entry) ->
        match e.H.Lint_sweep.e_outcome with
        | H.Lint_sweep.Findings ds ->
            Format.eprintf "%s on %s (%s):@.%a"
              e.H.Lint_sweep.e_algo
              e.H.Lint_sweep.e_config.H.Lint_sweep.c_label
              (T.Protocol.name e.H.Lint_sweep.e_config.H.Lint_sweep.c_proto)
              Lint.pp (Lint.errors ds)
        | H.Lint_sweep.Clean _ | H.Lint_sweep.Build_failed _ -> ())
      entries;
    if H.Lint_sweep.clean entries then ok else finding_error
  in
  let run input nodes gpus channels instances proto chunk_factor json jobs =
    match input with
    | All -> sweep ~json ?jobs ()
    | input ->
        let params =
          build_params nodes gpus channels instances proto chunk_factor true
        in
        with_ir ~json ~params input (lint_one ~json)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis of MSCCL-IR: data races between thread blocks \
          (happens-before + footprint overlap), FIFO deadlocks, dangling \
          dependencies, out-of-bounds accesses, dead scratch, channel \
          contention. Exit 1 on error findings, 2 on unusable input.")
    Term.(
      const run
      $ input_arg
          ~all_doc:
            "Sweep every registered algorithm across the NDv4/DGX-2 presets \
             and the Simple/LL/LL128 protocols."
      $ nodes_arg $ gpus_arg $ channels_arg $ instances_arg $ proto_arg
      $ chunk_factor_arg $ json_arg $ jobs_arg)

let analyze_cmd =
  let symmetry_arg =
    let doc =
      "Infer and certify rank-permutation symmetries and report the rank \
       orbits. With $(b,--json), the race pass behind the reported \
       $(i,races) count and $(i,hbgraph_stats) then runs on one \
       representative rank per orbit."
    in
    Arg.(value & flag & info [ "symmetry" ] ~doc)
  in
  let hb_stats_json (st : Hbgraph.stats) =
    Json.(
      Obj
        Hbgraph.
          [ ("nodes", Int st.st_nodes); ("edges", Int st.st_edges);
            ("small_closure", Bool st.st_small_closure);
            ("queries", Int st.st_queries);
            ("orbit_hits", Int st.st_orbit_hits);
            ("pos_cutoffs", Int st.st_pos_cutoffs);
            ("local_hits", Int st.st_local_hits);
            ("local_builds", Int st.st_local_builds);
            ("row_hits", Int st.st_row_hits);
            ("rows_built", Int st.st_rows_built);
            ("dfs", Int st.st_dfs) ])
  in
  let analyze_one ~json ~symmetry ~topology ~size_bytes ir =
    match Perfcheck.lint ~topo:topology ~size_bytes ir with
    | exception Invalid_argument m ->
        prerr_endline m;
        input_error
    | report, diags ->
        let sym =
          if symmetry then Some (Msccl_analysis.Symmetry.infer ir) else None
        in
        let prov = Msccl_analysis.Provenance.analyze ?symmetry:sym ir in
        if json then begin
          (* Drive the race pass explicitly so the happens-before stats
             are real; under --symmetry it runs quotiented by the
             inferred orbits (the identity when nothing certifies). *)
          let hb =
            Hbgraph.build
              ~fifo_slots:(T.Protocol.num_slots ir.Ir.proto)
              ir
          in
          let orbit =
            Option.map (fun s -> s.Msccl_analysis.Symmetry.s_orbit) sym
          in
          let races = Races.find ~hb ?orbit ir in
          let sym_fields =
            match sym with
            | None -> []
            | Some s ->
                [ ("symmetry", Msccl_analysis.Symmetry.report_json s);
                  ("races", Json.Int (List.length races)) ]
          in
          print_json
            (Json.Obj
               (("report", Perfcheck.report_json report)
                :: ("diagnostics", Lint.to_json diags)
                :: ("hbgraph_stats", hb_stats_json (Hbgraph.stats hb))
                :: sym_fields
               @ [ ("provenance", Msccl_analysis.Provenance.report_json prov) ]
               ))
        end
        else begin
          Format.printf "%s on %s@.%a@.%a@." (Ir.summary ir)
            (T.Topology.name topology)
            Analysis.pp report.Perfcheck.analysis Perfcheck.pp report;
          (match sym with
          | None -> ()
          | Some s ->
              Format.printf "%s@." (Msccl_analysis.Symmetry.report s));
          let open Msccl_analysis.Provenance in
          Format.printf
            "provenance: %s (%s mode; %d step(s), %d slot(s), %d dataflow \
             lint(s))@."
            (if prov.r_diags = [] then "clean"
             else Printf.sprintf "%d diagnostic(s)"
                 (List.length prov.r_diags))
            (match prov.r_mode with
            | Full -> "full"
            | Quotient { orbits; interpreted_ranks } ->
                Printf.sprintf "quotient %d/%d" interpreted_ranks orbits)
            prov.r_steps_interpreted prov.r_slots_checked
            (List.length prov.r_lints);
          List.iter (fun d -> Format.printf "  %a@." pp_diag d) prov.r_diags;
          if prov.r_lints <> [] then Format.printf "%a" Lint.pp prov.r_lints;
          if diags <> [] then Format.printf "%a" Lint.pp diags
        end;
        ok
  in
  let sweep ~json ~size_bytes ?jobs () =
    let entries = H.Lint_sweep.run_perf ?jobs ~size_bytes () in
    if json then begin
      let one (e : H.Lint_sweep.perf_entry) =
        let body =
          match e.H.Lint_sweep.p_outcome with
          | H.Lint_sweep.Analyzed { report; diags } ->
              Json.
                [ ("status", String "analyzed");
                  ("bw_efficiency", Float report.Perfcheck.bw_efficiency);
                  ("time_efficiency", Float report.Perfcheck.time_efficiency);
                  ("diagnostics", Lint.to_json diags) ]
          | H.Lint_sweep.Perf_skipped m ->
              Json.[ ("status", String "skipped"); ("reason", String m) ]
        in
        sweep_entry e.H.Lint_sweep.p_algo e.H.Lint_sweep.p_config body
      in
      print_json (Json.List (List.map one entries))
    end
    else Format.printf "%a@." H.Lint_sweep.pp_perf entries;
    ok
  in
  let run input topo channels instances proto chunk_factor size json symmetry
      jobs =
    let size_bytes = int_of_float size in
    match input with
    | All -> sweep ~json ~size_bytes ?jobs ()
    | input -> (
        match H.Registry.parse_topology topo with
        | Error msg ->
            prerr_endline msg;
            input_error
        | Ok topology ->
            let params =
              build_params (T.Topology.num_nodes topology)
                (T.Topology.gpus_per_node topology)
                channels instances proto chunk_factor true
            in
            with_ir ~json ~params input
              (analyze_one ~json ~symmetry ~topology ~size_bytes))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Cost-model-grounded performance analysis of MSCCL-IR: α–β–γ \
          lower-bound certificate and efficiency ratio, per-resource \
          congestion, thread-block imbalance, redundant sends and missed \
          fusion opportunities. Perf findings are advisory (exit 0); \
          unusable input exits 2.")
    Term.(
      const run
      $ input_arg
          ~all_doc:
            "Sweep every registered algorithm across the NDv4/DGX-2 presets \
             and the Simple/LL/LL128 protocols, printing the efficiency \
             table."
      $ topo_arg $ channels_arg $ instances_arg $ proto_arg $ chunk_factor_arg
      $ size_arg $ json_arg $ symmetry_arg $ jobs_arg)

let show_cmd =
  let stats_arg =
    let doc = "Print a static analysis report instead of the full IR." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let run file stats =
    match ingest_file file with
    | None -> input_error
    | Some ir ->
        if stats then
          Format.printf "%s@.%a@." (Ir.summary ir) Analysis.pp
            (Analysis.analyze ir)
        else Format.printf "%a@." Ir.pp ir;
        ok
  in
  Cmd.v
    (Cmd.info "show" ~doc:"Pretty-print or analyze an MSCCL-IR XML file")
    Term.(const run $ xml_file_arg $ stats_arg)

let simulate_cmd =
  let file_arg =
    let doc = "Simulate this MSCCL-IR XML file instead of a named algorithm." in
    Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let algo_opt_arg =
    let doc = "Algorithm name (alternative to --file)." in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"ALGO" ~doc)
  in
  let sweep_arg =
    let doc = "Sweep buffer sizes 1KB..1GB instead of a single size." in
    Arg.(value & flag & info [ "sweep" ] ~doc)
  in
  let trace_arg =
    let doc = "Write a Chrome-tracing timeline of the simulated execution \
               (open in chrome://tracing or Perfetto)." in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run algo file topo channels instances proto chunk_factor size sweep
      trace =
    match H.Registry.parse_topology topo with
    | Error msg ->
        prerr_endline msg;
        user_error
    | Ok topology -> (
        let nodes = T.Topology.num_nodes topology in
        let gpus = T.Topology.gpus_per_node topology in
        let ir_result =
          match (file, algo) with
          | Some f, _ -> (
              match ingest_file f with
              | Some ir -> Ok ir
              | None -> Error "")
          | None, Some a ->
              build_ir a
                (build_params nodes gpus channels instances proto chunk_factor
                   true)
          | None, None -> Error "need an algorithm name or --file"
        in
        match ir_result with
        | Error msg ->
            if msg <> "" then prerr_endline msg;
            user_error
        | Ok ir ->
            let timeline = Option.map (fun _ -> Timeline.create ()) trace in
            let one buffer_bytes =
              let r =
                Simulator.run_buffer ~topo:topology ~buffer_bytes ?timeline ir
              in
              Printf.printf
                "%10s  %12.1f us   algbw %8.2f GB/s   (tiles=%d msgs=%d)\n"
                (H.Sweep.pretty buffer_bytes)
                (r.Simulator.time *. 1e6)
                (Simulator.algbw ~buffer_bytes r /. 1e9)
                r.Simulator.tiles r.Simulator.messages
            in
            Printf.printf "%s on %s (%s)\n" ir.Ir.name
              (T.Topology.name topology)
              (T.Protocol.name ir.Ir.proto);
            (try
               if sweep then
                 List.iter one
                   (H.Sweep.sizes ~from:1024. ~upto:(H.Sweep.gib 1.))
               else one size;
               (match (trace, timeline) with
               | Some path, Some tl ->
                   Json.to_file path (Timeline.to_chrome_json tl);
                   Printf.eprintf "wrote %d span(s) to %s\n"
                     (Timeline.num_events tl) path
               | _ -> ());
               ok
             with Simulator.Sim_error m ->
               Printf.eprintf "simulation error: %s\n" m;
               user_error))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate an algorithm or IR file on a cluster topology")
    Term.(
      const run $ algo_opt_arg $ file_arg $ topo_arg $ channels_arg
      $ instances_arg $ proto_arg $ chunk_factor_arg $ size_arg $ sweep_arg
      $ trace_arg)

let tune_cmd =
  let coll_arg =
    let doc = "Collective to tune: allreduce or alltoall." in
    Arg.(value & opt string "allreduce" & info [ "collective" ] ~docv:"COLL" ~doc)
  in
  let run topo coll =
    match H.Registry.parse_topology topo with
    | Error msg ->
        prerr_endline msg;
        user_error
    | Ok topology -> (
        let pick =
          match String.lowercase_ascii coll with
          | "allreduce" ->
              Ok
                ( H.Tuner.allreduce_candidates topology,
                  Msccl_baselines.Nccl_model.allreduce topology )
          | "alltoall" ->
              Ok
                ( H.Tuner.alltoall_candidates topology,
                  Msccl_baselines.Nccl_model.alltoall topology )
          | other -> Error (Printf.sprintf "cannot tune %S" other)
        in
        match pick with
        | Error msg ->
            prerr_endline msg;
            user_error
        | Ok ([], _) ->
            prerr_endline "no candidates for this collective on this topology";
            user_error
        | Ok (candidates, nccl) ->
            let table = H.Tuner.tune ~topo:topology ~nccl ~candidates () in
            Format.printf "%a" H.Tuner.pp_table table;
            ok)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Build the size-range algorithm selection table for a topology")
    Term.(const run $ topo_arg $ coll_arg)

let fuzz_cmd =
  let module F = Msccl_fuzz in
  let seed_arg =
    let doc = "Run seed; every case is a deterministic function of it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let cases_arg =
    let doc = "Number of random cases to generate and check." in
    Arg.(value & opt int 100 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let oracle_arg =
    let doc =
      "Restrict checking to one oracle (repeatable): exec, equiv, static, \
       symmetry, provenance, perf, roundtrip, chaos, sym_compile or \
       ingest. Default: all ten."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"ORACLE" ~doc)
  in
  let out_dir_arg =
    let doc =
      "Write every failing case (original and shrunk) as replayable seed \
       files into this directory (created if missing)."
    in
    Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay stored seed files through the oracles instead of generating \
       random cases (repeatable)."
    in
    Arg.(value & opt_all file [] & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let mutate_arg =
    let doc =
      "Self-test: corrupt every fused compilation with a deliberately \
       broken fusion rule and demand that the oracles catch it."
    in
    Arg.(value & flag & info [ "mutate-fusion" ] ~doc)
  in
  let corpus_arg =
    let doc =
      "Imported-corpus mode: instead of generating cases, push every \
       *.xml file under this directory through the external ingestion \
       boundary. Each file must either ingest cleanly (and survive \
       seeded corruptions, round-tripping through print) or be rejected \
       with positioned structured diagnostics; anything else — an \
       escaped exception, a position-less rejection — is a finding."
    in
    Arg.(value & opt (some dir) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let mangles_arg =
    let doc = "Corruptions per accepted corpus file (with --corpus)." in
    Arg.(value & opt int 8 & info [ "mangles" ] ~docv:"N" ~doc)
  in
  let run_corpus ~seed ~mangles ~json ~jobs dir =
    let r = F.Fuzz.run_corpus ?jobs ~mangles ~seed ~dir () in
    if json then print_json (F.Fuzz.corpus_report_json r)
    else begin
      List.iter
        (fun (e : F.Fuzz.corpus_entry) ->
          match e.F.Fuzz.ce_outcome with
          | F.Fuzz.C_accepted { c_warnings } ->
              Printf.printf "%-40s accepted (%d warning(s))\n"
                e.F.Fuzz.ce_path c_warnings
          | F.Fuzz.C_rejected { c_errors; c_first } ->
              Printf.printf "%-40s rejected (%d error(s))\n  %s\n"
                e.F.Fuzz.ce_path c_errors c_first
          | F.Fuzz.C_failed m ->
              Printf.printf "%-40s FAILED\n  %s\n" e.F.Fuzz.ce_path m)
        r.F.Fuzz.cr_entries;
      Printf.printf "corpus %s: %d file(s), %s\n" dir
        (List.length r.F.Fuzz.cr_entries)
        (if F.Fuzz.corpus_ok r then "ok" else "FAILURES")
    end;
    if F.Fuzz.corpus_ok r then ok else finding_error
  in
  let resolve_oracles names =
    match names with
    | [] -> Ok F.Oracle.all
    | names ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | n :: rest -> (
              match F.Oracle.id_of_name (String.lowercase_ascii n) with
              | Some o -> go (o :: acc) rest
              | None ->
                  Error
                    (Printf.sprintf
                       "unknown oracle %S (expected exec, equiv, static, \
                        symmetry, provenance, perf, roundtrip, chaos, \
                        sym_compile or ingest)"
                       n))
        in
        go [] names
  in
  let replay_files ~oracles files =
    let failed = ref false in
    List.iter
      (fun file ->
        match F.Case.load file with
        | Error msg ->
            Printf.eprintf "%s\n" msg;
            failed := true
        | Ok c -> (
            match F.Fuzz.replay ~oracles c with
            | Ok () -> Printf.printf "%s: OK (%s)\n" file (F.Case.describe c)
            | Error f ->
                Format.printf "%s: FAILED %a@." file F.Oracle.pp_failure f;
                failed := true))
      files;
    if !failed then finding_error else ok
  in
  let save_failures dir (r : F.Fuzz.report) =
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    List.iter
      (fun (f : F.Fuzz.failure) ->
        let base =
          Filename.concat dir
            (Printf.sprintf "fail-s%d-i%d" r.F.Fuzz.r_seed
               f.F.Fuzz.f_case.F.Case.index)
        in
        F.Case.save f.F.Fuzz.f_case (base ^ "-orig.case");
        F.Case.save f.F.Fuzz.f_shrunk (base ^ ".case"))
      r.F.Fuzz.r_failures
  in
  let run seed cases oracle_names json out_dir replays mutate_fusion corpus
      mangles jobs =
    match resolve_oracles oracle_names with
    | Error msg ->
        prerr_endline msg;
        input_error
    | Ok oracles -> (
        match corpus with
        | Some dir -> run_corpus ~seed ~mangles ~json ~jobs dir
        | None ->
        if replays <> [] then replay_files ~oracles replays
        else begin
          let mutate = if mutate_fusion then Some F.Mutate.break_fusion else None in
          let report = F.Fuzz.run ?jobs ?mutate ~oracles ~seed ~cases () in
          Option.iter (fun dir -> save_failures dir report) out_dir;
          if json then print_json (F.Fuzz.report_json report)
          else begin
            List.iter
              (fun (f : F.Fuzz.failure) ->
                Format.printf "case %d (%s):@.  %a@.  shrunk to: %s@."
                  f.F.Fuzz.f_case.F.Case.index
                  (F.Case.describe f.F.Fuzz.f_case)
                  F.Oracle.pp_failure f.F.Fuzz.f_failure
                  (F.Case.describe f.F.Fuzz.f_shrunk))
              report.F.Fuzz.r_failures;
            Printf.printf "fuzz seed %d: %d case(s), %d failure(s)\n" seed
              cases
              (List.length report.F.Fuzz.r_failures)
          end;
          if report.F.Fuzz.r_failures = [] then ok else finding_error
        end)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random DSL programs cross-checked against \
          the executor (symbolic + numeric), differential compilation \
          (fusion on/off, instances k/1), the static analyses, the \
          chunk-provenance verifier (static verdict must equal the \
          executor's), the perfcheck lower bound and XML round-tripping. \
          Failing cases are shrunk and written as replayable seed files. \
          Exit 1 on failures, 2 on unusable input.")
    Term.(
      const run $ seed_arg $ cases_arg $ oracle_arg $ json_arg $ out_dir_arg
      $ replay_arg $ mutate_arg $ corpus_arg $ mangles_arg $ jobs_arg)

let chaos_cmd =
  let quick_arg =
    let doc =
      "CI smoke campaign: ring and allpairs allreduce at 8 ranks under a \
       one-link-degraded (severity 0.5) plan. Benign by construction, so \
       any hang fails the run."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let seed_arg =
    let doc = "Campaign seed: selects which link each plan degrades." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let severities_arg =
    let doc =
      "Comma-separated degradation severities in [0, 1]; 1 kills the \
       link (hangs become expected verdicts, not failures)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "severities" ] ~docv:"S1,S2,..." ~doc)
  in
  let algos_arg =
    let doc = "Restrict the campaign to one algorithm (repeatable)." in
    Arg.(value & opt_all string [] & info [ "algo"; "a" ] ~docv:"ALGO" ~doc)
  in
  let topology_arg =
    let doc = "Topology label, e.g. ndv4:1 or dgx2:1." in
    Arg.(value & opt string "ndv4:1" & info [ "topology"; "t" ] ~docv:"TOPO" ~doc)
  in
  let out_arg =
    let doc = "Also write the JSON report to this file." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let parse_severities s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match float_of_string_opt (String.trim p) with
          | Some v when v >= 0. && v <= 1. -> go (v :: acc) rest
          | _ -> Error (Printf.sprintf "bad severity %S (want 0..1)" p))
    in
    go [] parts
  in
  let run quick json seed severities algos topology out size jobs =
    let campaign =
      if quick then H.Chaos.quick ?jobs ()
      else
        match Option.map parse_severities severities with
        | Some (Error m) -> Error m
        | Some (Ok sevs) ->
            H.Chaos.run ?jobs
              ?algos:(if algos = [] then None else Some algos)
              ~severities:sevs ~seed ~size_bytes:size ~topology ()
        | None ->
            H.Chaos.run ?jobs
              ?algos:(if algos = [] then None else Some algos)
              ~seed ~size_bytes:size ~topology ()
    in
    match campaign with
    | Error m ->
        prerr_endline m;
        input_error
    | Ok entries ->
        let report = H.Chaos.to_json ~seed entries in
        Option.iter (fun file -> Json.to_file file report) out;
        if json then print_json report
        else Format.printf "%a" H.Chaos.pp entries;
        let bad = H.Chaos.unexpected_hangs entries in
        if bad <> [] then begin
          List.iter
            (fun (e : H.Chaos.entry) ->
              Printf.eprintf
                "unexpected hang: %s at severity %g (benign plan)\n"
                e.H.Chaos.x_algo e.H.Chaos.x_severity)
            bad;
          finding_error
        end
        else ok
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault-sweep campaigns over the registry: each algorithm is \
          simulated under deterministic link-degradation plans of \
          increasing severity and reports its completion-time degradation \
          or the watchdog's hang diagnosis. Output is byte-identical for \
          any $(b,--jobs). Exit 1 when a benign (severity < 1) plan \
          hangs, 2 on unusable input.")
    Term.(
      const run $ quick_arg $ json_arg $ seed_arg $ severities_arg
      $ algos_arg $ topology_arg $ out_arg $ size_arg $ jobs_arg)

let figures_cmd =
  let which_arg =
    let doc = "Figure ids to regenerate (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"FIG" ~doc)
  in
  let run which =
    let known = H.Figures.all @ H.Ablations.all in
    let selected =
      match which with
      | [] -> H.Figures.all
      | ids -> List.filter (fun (id, _) -> List.mem id ids) known
    in
    if selected = [] then begin
      Printf.eprintf "no matching figures; known: %s\n"
        (String.concat " " (List.map fst known));
      user_error
    end
    else begin
      List.iter
        (fun (_, f) ->
          let fig = f () in
          H.Report.print Format.std_formatter fig;
          print_string (H.Report.summarize fig))
        selected;
      ok
    end
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's evaluation figures")
    Term.(const run $ which_arg)

let main =
  let doc = "MSCCLang: compile, verify and simulate GPU collectives" in
  Cmd.group (Cmd.info "msccl" ~doc)
    [
      list_cmd; compile_cmd; verify_cmd; lint_cmd; analyze_cmd; show_cmd;
      simulate_cmd; tune_cmd; fuzz_cmd; chaos_cmd; figures_cmd;
    ]

let () = exit (Cmd.eval' main)

(* The traced in-process run: the public call of each layer, in the order
   the CLI makes them for a workload's operations, each wrapped in a span.

   Spans live in memory and are written once at the end, as a Chrome trace
   and a self-time summary. An operation's root span ("op.<kind>") covers
   what the CLI process does for it apart from start-up and printing; the
   layer spans below it are the calls the CLI makes. Operations on the
   workload's own CLI path are "path" spans. A layer the path never calls
   directly is timed by a "probe": the command that would call it, run on
   the workload's first configuration. Hbgraph.build and Races.find run
   inside Lint.run and are always probes. Probes are kept out of the
   accounting against the CLI's wall time. *)

open Msccl_core
module A = Msccl_algorithms
module H = Msccl_harness
module T = Msccl_topology
module W = Workload
module Sym = Msccl_analysis.Symmetry
module Prov = Msccl_analysis.Provenance

type span = {
  sid : int;
  name : string;
  parent : int;  (** [sid] of the enclosing span, or -1. *)
  op : int;  (** Operation id: spans of one operation share it. *)
  path : bool;  (** On the workload's CLI path (else a probe). *)
  mutable t0 : float;
  mutable t1 : float;
  mutable alloc : float;  (** Bytes allocated while the span was open. *)
  mutable counters : (string * float) list;
}

type state = {
  mutable spans : span list;  (** Most recent first. *)
  mutable stack : span list;
  mutable next : int;
  mutable op : int;
  mutable on_path : bool;
}

let st = { spans = []; stack = []; next = 0; op = 0; on_path = true }

(** Times [f ()] as span [name]. [counters] reads the layer's work counts
    from the result, after the clock has stopped. A span whose call raises
    is not recorded. *)
let span ?(counters = fun _ -> []) name f =
  let parent = match st.stack with p :: _ -> p.sid | [] -> -1 in
  let s =
    {
      sid = st.next; name; parent; op = st.op; path = st.on_path;
      t0 = 0.; t1 = 0.; alloc = 0.; counters = [];
    }
  in
  st.next <- st.next + 1;
  st.stack <- s :: st.stack;
  let a0 = Gc.allocated_bytes () in
  s.t0 <- Proc.now ();
  let r = Fun.protect ~finally:(fun () -> st.stack <- List.tl st.stack) f in
  s.t1 <- Proc.now ();
  s.alloc <- Gc.allocated_bytes () -. a0;
  s.counters <- counters r;
  st.spans <- s :: st.spans;
  r

let add_counters name cs =
  match List.find_opt (fun s -> s.name = name) st.spans with
  | Some s -> s.counters <- s.counters @ cs
  | None -> ()

let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* The layers' public calls, as the CLI makes them                     *)
(* ------------------------------------------------------------------ *)

let proto (c : W.cfg) =
  match c.proto with
  | None -> T.Protocol.Simple
  | Some p -> Option.get (T.Protocol.of_string p)

let instances (c : W.cfg) = Option.value c.r ~default:1

let params (c : W.cfg) ~verify =
  let t = W.topology c in
  {
    H.Registry.nodes = T.Topology.num_nodes t;
    gpus_per_node = T.Topology.gpus_per_node t;
    channels = Option.value c.ch ~default:1;
    instances = instances c;
    proto = proto c;
    chunk_factor = 1;
    verify;
  }

let spec (c : W.cfg) = Option.get (H.Registry.find c.algo)

(* What the registry's [build] hands to [Compile.ir] for each algorithm:
   the IR name, the collective and the DSL program. The traced compile is
   checked equal to the registry build, so a drift here cannot go
   unnoticed. *)
let recipe (c : W.cfg) =
  let p = params c ~verify:true in
  let nodes = p.H.Registry.nodes and g = p.H.Registry.gpus_per_node in
  let n = nodes * g and ch = p.H.Registry.channels in
  let allreduce ?(chunk_factor = n) () =
    Collective.make Collective.Allreduce ~num_ranks:n ~chunk_factor
      ~inplace:true ()
  in
  let alltoall () = Collective.make Collective.Alltoall ~num_ranks:n () in
  match c.algo with
  | "ring-allreduce" ->
      ( Printf.sprintf "ring-allreduce-ch%d" ch,
        allreduce (),
        A.Ring_allreduce.program ~num_ranks:n ~channels:ch )
  | "allpairs-allreduce" ->
      ("allpairs-allreduce", allreduce (), A.Allpairs_allreduce.program ~num_ranks:n)
  | "hierarchical-allreduce" ->
      ( "hierarchical-allreduce",
        allreduce (),
        A.Hierarchical_allreduce.program ~nodes ~gpus_per_node:g
          ~intra_parallel:nodes )
  | "two-step-alltoall" ->
      ( "two-step-alltoall",
        alltoall (),
        fun p -> A.Two_step_alltoall.program ~nodes ~gpus_per_node:g p )
  | "naive-alltoall" ->
      ("naive-alltoall", alltoall (), A.Alltoall_naive.program ~num_ranks:n)
  | "alltonext" ->
      ( "alltonext",
        Collective.make Collective.Alltonext ~num_ranks:n ~chunk_factor:g (),
        A.Alltonext.program ~nodes ~gpus_per_node:g )
  | "sccl-allgather" ->
      ( "sccl-allgather-122",
        Collective.make Collective.Allgather ~num_ranks:8 (),
        A.Allgather_sccl.program )
  | "tree-allreduce" ->
      ( Printf.sprintf "tree-allreduce-ch%d" ch,
        allreduce ~chunk_factor:1 (),
        A.Tree_allreduce.program ~num_ranks:n ~chunk_factor:1 ~channels:ch )
  | "double-binary-tree" ->
      ( "double-binary-tree-allreduce",
        allreduce ~chunk_factor:2 (),
        A.Double_binary_tree.program ~num_ranks:n ~chunks_per_tree:1 )
  | a -> invalid_arg ("perfbench: no traced recipe for " ^ a)

(* Verify.check, call by call. *)
let verify ir =
  span "verify.structure" (fun () -> Ir.validate ir);
  (match span "verify.deadlock" (fun () -> Verify.check_deadlock_free ir) with
  | Ok () -> ()
  | Error m -> failwith ("deadlock check failed: " ^ m));
  match span "verify.postcondition" (fun () -> Verify.check_postcondition ir) with
  | Ok () -> ()
  | Error _ -> failwith "postcondition failed"

(* Compile.compile split into its stages. *)
let compile ~verify:v c =
  let name, coll, prog = recipe c in
  let dag =
    span "program.trace"
      ~counters:(fun d -> [ ("chunk_ops", fi (Chunk_dag.num_nodes d)) ])
      (fun () -> Program.trace ~name coll prog)
  in
  let idag =
    span "instr_dag.lower"
      ~counters:(fun i -> [ ("instrs", fi (Instr_dag.num_live i)) ])
      (fun () -> Instr_dag.of_chunk_dag dag)
  in
  ignore
    (span "fusion.fuse"
       ~counters:(fun s ->
         [
           ("applied", fi (Fusion.total s));
           ("instrs_after", fi (Instr_dag.num_live idag));
         ])
       (fun () -> Fusion.fuse idag));
  let ir =
    span "schedule.run"
      ~counters:(fun ir ->
        [
          ("steps", fi (Ir.num_steps ir)); ("tbs", fi (Ir.num_thread_blocks ir));
        ])
      (fun () ->
        Instances.blocked (Schedule.run ~proto:(proto c) idag)
          ~instances:(instances c))
  in
  if v then verify ir;
  ir

(* The CLI's --sym-compile: the certified replicated compile where the
   algorithm declares a symmetry hint, else the full pipeline. *)
let compile_sym c =
  let p = params c ~verify:true in
  let fallbacks n = [ ("fallbacks", n) ] in
  match (spec c).H.Registry.sym with
  | None ->
      span "replicate.compile"
        ~counters:(fun _ -> fallbacks 1.)
        (fun () -> (spec c).H.Registry.build p)
  | Some case ->
      let k = case p in
      let report, _ =
        span "replicate.compile"
          ~counters:(function
            | _, Msccl_analysis.Sym_compile.Replicated _ -> fallbacks 0.
            | _, Msccl_analysis.Sym_compile.Fell_back _ -> fallbacks 1.)
          (fun () ->
            Msccl_analysis.Sym_compile.compile ~name:c.algo ~proto:p.proto
              ~instances:p.instances ~verify:p.verify ~hint:k.H.Registry.sym_hint
              k.H.Registry.sym_coll k.H.Registry.sym_program)
      in
      report.Compile.ir

let write_xml path ir =
  let s =
    span "xml.print"
      ~counters:(fun s -> [ ("bytes", fi (String.length s)) ])
      (fun () -> Xml.to_string ir)
  in
  span "io.write" (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc s))

(* Ingest.load, call by call. *)
let ingest path =
  let s = span "io.read" (fun () -> Proc.read_file path) in
  let tree =
    span "xml.parse"
      ~counters:(fun _ -> [ ("parse_bytes", fi (String.length s)) ])
      (fun () -> Xml.parse_tree ~file:path s)
  in
  match
    span "ingest.decode"
      ~counters:(function
        | Ok (_, w) -> [ ("warnings", fi (List.length w)) ] | Error _ -> [])
      (fun () -> Msccl_interop.Ingest.of_tree ~file:path tree)
  with
  | Ok (ir, _) -> ir
  | Error ds -> failwith (Msccl_interop.Ingest.diags_to_string ds)

let steps (r : Prov.report) = [ ("steps_interpreted", fi r.Prov.r_steps_interpreted) ]

let prov_ok (r : Prov.report) =
  r.Prov.r_diags = [] && not (Lint.has_errors r.Prov.r_lints)

let simulate c ir sizes =
  let topo = W.topology c in
  List.map
    (fun b ->
      let r =
        span "simulator.run"
          ~counters:(fun r ->
            [
              ("events", fi r.Simulator.events);
              ("messages", fi r.Simulator.messages);
              ("calls", 1.);
            ])
          (fun () -> Simulator.run_buffer ~topo ~buffer_bytes:b ir)
      in
      (H.Sweep.pretty b, Printf.sprintf "%.1f" (r.Simulator.time *. 1e6)))
    sizes

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = { dir : string; goldens : Goldens.t; tally : Goldens.tally }

type step = Op of W.op | Races of W.cfg

let file ctx name = Filename.concat ctx.dir ("traced-" ^ name)

(* Runs one operation under its root span, then checks its result outside
   every span, so checking costs no layer any time. *)
let run_step ctx ~path step =
  st.on_path <- path;
  st.op <- st.op + 1;
  let check = Goldens.check ctx.tally in
  let root kind f = span ("op." ^ kind) f in
  let registry_equal c ir =
    check
      (W.id c ^ ": traced trace/lower/fuse/schedule IR equals the registry build")
      (Ir.equal ir ((spec c).H.Registry.build (params c ~verify:false)))
  in
  let digest_ok c path =
    check
      (W.id c ^ ": traced XML digest equals the golden")
      (Hashtbl.find_opt ctx.goldens.Goldens.xml (W.id c)
      = Some (Goldens.digest (Proc.read_file path)))
  in
  let label =
    match step with Op o -> W.kind_name o.W.kind | Races _ -> "races"
  in
  match step with
  | Op { W.kind = Compile; cfg = c } ->
      let path = file ctx (W.xml_file c) in
      let ir =
        root label (fun () ->
            let ir = compile ~verify:true c in
            write_xml path ir;
            ir)
      in
      registry_equal c ir;
      digest_ok c path
  | Op { W.kind = Compile_sym; cfg = c } ->
      let path = file ctx (W.sym_file c) in
      root label (fun () -> write_xml path (compile_sym c));
      digest_ok c path
  | Op { W.kind = Verify; cfg = c } ->
      root label (fun () -> verify (ingest (file ctx (W.xml_file c))))
  | Op { W.kind = Verify_static; cfg = c } ->
      let r =
        root label (fun () ->
            let ir = ingest (file ctx (W.xml_file c)) in
            let s =
              span "symmetry.infer"
                ~counters:(fun s -> [ ("orbits", fi (Orbit.num_orbits s.Sym.s_orbit)) ])
                (fun () -> Sym.infer ir)
            in
            span "provenance.quotient" ~counters:steps (fun () ->
                Prov.analyze ~symmetry:s ir))
      in
      check (W.id c ^ ": traced static provenance verdict OK") (prov_ok r)
  | Op { W.kind = Lint; cfg = c } ->
      let ds =
        root label (fun () ->
            let ir = ingest (file ctx (W.xml_file c)) in
            span "lint.run"
              ~counters:(fun ds -> [ ("diags", fi (List.length ds)) ])
              (fun () -> Lint.run ir))
      in
      check (W.id c ^ ": traced lint has no errors") (not (Lint.has_errors ds))
  | Op { W.kind = Analyze; cfg = c } ->
      let r =
        root label (fun () ->
            let ir = ingest (file ctx (W.xml_file c)) in
            let topo = W.topology c in
            ignore
              (span "perfcheck.lint" (fun () ->
                   Perfcheck.lint ~topo ~size_bytes:(1024 * 1024) ir));
            ignore (span "analysis.analyze" (fun () -> Analysis.analyze ir));
            span "provenance.full" ~counters:steps (fun () -> Prov.analyze ir))
      in
      check (W.id c ^ ": traced full provenance clean") (prov_ok r)
  | Op ({ W.kind = Simulate_file _; cfg = c } as o) ->
      let results =
        root label (fun () ->
            simulate c (ingest (file ctx (W.xml_file c))) (W.sizes o.W.kind))
      in
      Goldens.check_sim ctx.goldens ctx.tally (W.id c) ~sizes:(W.sizes o.W.kind)
        results
  | Op ({ W.kind = Simulate_algo; cfg = c } as o) ->
      let ir, results =
        root label (fun () ->
            let ir = compile ~verify:false c in
            (ir, simulate c ir (W.sizes o.W.kind)))
      in
      registry_equal c ir;
      Goldens.check_sim ctx.goldens ctx.tally (W.id c) ~sizes:(W.sizes o.W.kind)
        results
  | Races c ->
      let races =
        root label (fun () ->
            let ir = ingest (file ctx (W.xml_file c)) in
            let hb =
              span "hbgraph.build" (fun () ->
                  Hbgraph.build ~fifo_slots:(T.Protocol.num_slots ir.Ir.proto) ir)
            in
            let races =
              span "races.find"
                ~counters:(fun rs -> [ ("found", fi (List.length rs)) ])
                (fun () -> Races.find ~hb ir)
            in
            let s = Hbgraph.stats hb in
            add_counters "hbgraph.build"
              [
                ("queries", fi s.Hbgraph.st_queries);
                ("rows_built", fi s.Hbgraph.st_rows_built);
                ("orbit_hits", fi s.Hbgraph.st_orbit_hits);
              ];
            races)
      in
      check (W.id c ^ ": traced race probe finds no races") (races = [])

let run_step ctx ~path step =
  try run_step ctx ~path step
  with e ->
    Goldens.check ctx.tally
      (Printf.sprintf "traced %s raised %s"
         (match step with Op o -> W.id o.W.cfg | Races c -> W.id c)
         (Printexc.to_string e))
      false

(** Runs [ops] (the workload's CLI sequence) as path operations, then the
    probes for every layer they never call, on the first configuration. *)
let run ctx (ops : W.op list) =
  List.iter (fun o -> run_step ctx ~path:true (Op o)) ops;
  let c = (List.hd ops).W.cfg in
  let on_path k = List.exists (fun (o : W.op) -> o.W.kind = k) ops in
  List.iter
    (fun kind ->
      if not (on_path kind) then run_step ctx ~path:false (Op { W.kind; cfg = c }))
    [ W.Compile; Compile_sym; Verify; Verify_static; Lint; Analyze ];
  run_step ctx ~path:false (Races c)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

type layer = {
  l_span : string;
  l_call : string;  (** The public call the span times. *)
  l_counters : string list;  (** Work counts, as "<layer>.<counter>". *)
  l_moves : string;  (** The end-to-end metric it should move, and where. *)
}

let layer l_span l_call l_counters l_moves = { l_span; l_call; l_counters; l_moves }

(* Written down before measuring: which end-to-end metric each layer
   should move, on which workload. *)
let layers =
  let parse = "verify_s, analyze_s, simulate_s, peak_rss_mb on ring256-file; <=10% of simulate_s on alltoall-sweep" in
  let compile = "compile_s on ring256-file; wall_s on paper-sweep" in
  [
    layer "program.trace" "Program.trace" [ "chunk_ops" ] compile;
    layer "instr_dag.lower" "Instr_dag.of_chunk_dag" [ "instrs" ] compile;
    layer "fusion.fuse" "Fusion.fuse" [ "applied"; "instrs_after" ]
      "compile_s on ring256-file; fusion.applied -> sim_time_us on all";
    layer "schedule.run" "Schedule.run + Instances.blocked" [ "steps"; "tbs" ]
      "compile_s on ring256-file; schedule.steps -> sim_time_us and XML size";
    layer "verify.structure" "Ir.validate" []
      "verify_s on ring256-file; compile_s on ring256-file and alltoall-sweep";
    layer "verify.deadlock" "Verify.check_deadlock_free" []
      "verify_s on ring256-file; compile_s on ring256-file and alltoall-sweep";
    layer "verify.postcondition" "Verify.check_postcondition" []
      "verify_s on ring256-file; compile_s on ring256-file and alltoall-sweep";
    layer "replicate.compile" "Sym_compile.compile" [ "fallbacks" ]
      "compile_s on ring256-file only";
    layer "xml.print" "Xml.to_string" [ "bytes" ]
      "compile_s on ring256-file; none on paper-sweep";
    layer "io.write" "writing the XML file" [] "compile_s on ring256-file";
    layer "io.read" "reading the XML file" [] parse;
    layer "xml.parse" "Xml.parse_tree" [] parse;
    layer "ingest.decode" "Interop.Ingest.of_tree" [ "warnings" ] parse;
    layer "hbgraph.build" "Hbgraph.build + stats (probe: inside Lint.run)"
      [ "queries"; "rows_built"; "orbit_hits" ] "analyze_s on ring256-file";
    layer "races.find" "Races.find (probe: inside Lint.run)" [ "found" ]
      "analyze_s on ring256-file";
    layer "lint.run" "Lint.run" [ "diags" ] "analyze_s on ring256-file";
    layer "symmetry.infer" "Symmetry.infer" [ "orbits" ] "verify_s on ring256-file";
    layer "provenance.quotient" "Provenance.analyze ~symmetry" [ "steps_interpreted" ]
      "verify_s on ring256-file";
    layer "provenance.full" "Provenance.analyze" [ "steps_interpreted" ]
      "analyze_s on ring256-file";
    layer "perfcheck.lint" "Perfcheck.lint" [] "analyze_s on ring256-file";
    layer "analysis.analyze" "Analysis.analyze" [] "analyze_s on ring256-file";
    layer "simulator.run" "Simulator.run_buffer" [ "events"; "messages"; "calls" ]
      "simulate_s on alltoall-sweep (most); wall_s on paper-sweep; ~20% of simulate_s on ring256-file; events fixed by a speed-only change";
  ]

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let mb b = b /. 1048576.

let dur s = s.t1 -. s.t0

(* A layer's spans on the CLI path, or its probe spans where the path
   never calls it. *)
let selected name =
  let all = List.filter (fun s -> s.name = name) st.spans in
  match List.filter (fun s -> s.path) all with [] -> all | p -> p

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

let roots ~path = List.filter (fun s -> s.parent < 0 && s.path = path) st.spans

(** Per-layer metrics as [(name, value, unit)]: each layer's time and
    allocation, its counters, derived rates, and the accounting against
    the CLI's wall time [cli_wall] for the same operation sequence. *)
let metrics ~cli_wall ~cli_calls ~cli_startup =
  let counters = Hashtbl.create 32 in
  let per_layer =
    List.concat_map
      (fun l ->
        let ss = selected l.l_span in
        List.iter
          (fun s ->
            List.iter
              (fun (k, v) ->
                let key = layer_of l.l_span ^ "." ^ k in
                Hashtbl.replace counters key
                  (v +. Option.value (Hashtbl.find_opt counters key) ~default:0.))
              s.counters)
          ss;
        [
          (l.l_span ^ "_s", sum dur ss, "s");
          (l.l_span ^ ".alloc_mb", mb (sum (fun s -> s.alloc) ss), "MB");
        ])
      layers
  in
  let counter k = Option.value (Hashtbl.find_opt counters k) ~default:0. in
  let time name = sum dur (selected name) in
  let rate num den = if den > 0. then num /. den else 0. in
  let counts =
    List.concat_map
      (fun l ->
        List.map
          (fun k ->
            let key = layer_of l.l_span ^ "." ^ k in
            (key, counter key, "count"))
          l.l_counters)
      layers
    |> List.sort_uniq compare
  in
  let path_s = sum dur (roots ~path:true) in
  let gc = Gc.quick_stat () in
  per_layer @ counts
  @ [
      ("xml.print_mb_per_s", rate (mb (counter "xml.bytes")) (time "xml.print"), "MB/s");
      ("xml.parse_mb_per_s", rate (mb (counter "xml.parse_bytes")) (time "xml.parse"), "MB/s");
      ("simulator.events_per_s", rate (counter "simulator.events") (time "simulator.run"), "1/s");
      ("cli.wall_s", cli_wall, "s");
      ("cli.calls", fi cli_calls, "count");
      ("cli.startup_s", cli_startup, "s");
      ("cli.overhead_s", cli_wall -. path_s, "s");
      ("trace.path_s", path_s, "s");
      ("trace.probe_s", sum dur (roots ~path:false), "s");
      ("top_heap_mb", mb (fi (gc.Gc.top_heap_words * (Sys.word_size / 8))), "MB");
    ]

(* ------------------------------------------------------------------ *)
(* Output files                                                        *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Writes the Chrome trace (one thread per operation) and the per-span
    self-time summary, with the accounting of the path spans against the
    CLI wall time. *)
let write ~prefix ~cli_wall =
  let spans = List.rev st.spans in
  let base = match spans with s :: _ -> s.t0 | [] -> 0. in
  Out_channel.with_open_bin (prefix ^ ".trace.json") (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%s,\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"alloc_mb\":%.3f%s}}\n"
            (if i = 0 then "" else ",")
            (json_string s.name)
            (if s.path then "path" else "probe")
            s.op
            ((s.t0 -. base) *. 1e6)
            (dur s *. 1e6) s.sid s.parent (mb s.alloc)
            (String.concat ""
               (List.map
                  (fun (k, v) -> Printf.sprintf ",%s:%.17g" (json_string k) v)
                  s.counters)))
        spans;
      output_string oc "]}\n");
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (dur s +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.))
    spans;
  let self s = dur s -. Option.value (Hashtbl.find_opt child_time s.sid) ~default:0. in
  let rows = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = (s.path, s.name) in
      let n, total, selft =
        Option.value (Hashtbl.find_opt rows k) ~default:(0, 0., 0.)
      in
      Hashtbl.replace rows k (n + 1, total +. dur s, selft +. self s))
    spans;
  let rows =
    List.sort
      (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [])
  in
  let path_self = sum self (List.filter (fun s -> s.path) spans) in
  Out_channel.with_open_bin (prefix ^ ".summary.txt") (fun oc ->
      Printf.fprintf oc "%-6s %-24s %6s %12s %12s\n" "kind" "span" "calls" "total_s" "self_s";
      List.iter
        (fun ((path, name), (n, total, selft)) ->
          Printf.fprintf oc "%-6s %-24s %6d %12.6f %12.6f\n"
            (if path then "path" else "probe")
            name n total selft)
        rows;
      Printf.fprintf oc
        "\npath self times sum to %.6f s; CLI wall for the same operations %.6f s;\n\
         cli.overhead_s (process start, printing, anything untraced) = %.6f s\n"
        path_self cli_wall (cli_wall -. path_self))

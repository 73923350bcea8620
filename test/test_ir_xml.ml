(* MSCCL-IR structure and XML serialization tests. *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms
module H = Msccl_harness
module I = Msccl_interop.Ingest

(* The printed IR ingests back with no diagnostic at all. *)
let ingest_clean ?file what s =
  match I.of_string ?file s with
  | Ok (ir, []) -> ir
  | Ok (_, ds) | Error ds ->
      Alcotest.failf "%s: ingest drew diagnostics:\n%s" what
        (I.diags_to_string ds)

let roundtrip name ir =
  Testutil.tc name (fun () ->
      let s = Xml.to_string ir in
      let back = ingest_clean name s in
      Alcotest.(check bool) "round-trips" true (Testutil.ir_equal ir back);
      (* and printing again yields the same document *)
      Alcotest.(check string) "stable print" s (Xml.to_string back))

let test_parse_tree () =
  let t =
    Xml.parse_tree
      "<?xml version=\"1.0\"?>\n<!-- hi -->\n<a x=\"1\" y=\"a&amp;b\">\n  \
       <b/> <c z=\"&quot;q&quot;\"></c>\n</a>"
  in
  Alcotest.(check string) "tag" "a" t.Xml.tag;
  Alcotest.(check (list (pair string string)))
    "attrs"
    [ ("x", "1"); ("y", "a&b") ]
    t.Xml.attrs;
  Alcotest.(check int) "children" 2 (List.length t.Xml.children);
  Alcotest.(check (option string)) "escaped attr" (Some "\"q\"")
    (List.assoc_opt "z" (List.nth t.Xml.children 1).Xml.attrs)

let test_parse_errors () =
  let bad s =
    match Xml.parse_tree s with
    | exception Xml.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error on %S" s
  in
  bad "<a>";
  bad "<a></b>";
  bad "<a x=1/>";
  bad "no element"

let test_validate_rejects () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  let broken peers =
    let g = ir.Ir.gpus.(0) in
    let tb = { g.Ir.tbs.(0) with Ir.send = peers } in
    {
      ir with
      Ir.gpus =
        Array.mapi
          (fun i g' ->
            if i = 0 then { g with Ir.tbs = [| tb |] } else g')
          ir.Ir.gpus;
    }
  in
  (match Ir.validate (broken 99) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "peer out of range accepted");
  match Ir.validate (broken 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "self connection accepted"

let test_validate_connection_exclusivity () =
  (* Two thread blocks sending on the same connection must be rejected. *)
  let step op =
    {
      Ir.s = 0;
      op;
      src = Some (Loc.make ~rank:0 ~buf:Buffer_id.Input ~index:0 ~count:1);
      dst = None;
      count = 1;
      depends = [];
      has_dep = false;
    }
  in
  let tb id = { Ir.tb_id = id; send = 1; recv = -1; chan = 0;
                steps = [| step Instr.Send |] } in
  let recv_tb =
    {
      Ir.tb_id = 0;
      send = -1;
      recv = 0;
      chan = 0;
      steps =
        [|
          {
            Ir.s = 0;
            op = Instr.Recv;
            src = None;
            dst = Some (Loc.make ~rank:1 ~buf:Buffer_id.Output ~index:0 ~count:1);
            count = 1;
            depends = [];
            has_dep = false;
          };
          {
            Ir.s = 1;
            op = Instr.Recv;
            src = None;
            dst = Some (Loc.make ~rank:1 ~buf:Buffer_id.Output ~index:1 ~count:1);
            count = 1;
            depends = [];
            has_dep = false;
          };
        |];
    }
  in
  let coll = Collective.make Collective.Allgather ~num_ranks:2 ~chunk_factor:2 () in
  let ir =
    {
      Ir.name = "bad";
      collective = coll;
      proto = T.Protocol.Simple;
      gpus =
        [|
          { Ir.gpu_id = 0; input_chunks = 2; output_chunks = 4;
            scratch_chunks = 0; tbs = [| tb 0; tb 1 |] };
          { Ir.gpu_id = 1; input_chunks = 2; output_chunks = 4;
            scratch_chunks = 0; tbs = [| recv_tb |] };
        |];
    }
  in
  match Ir.validate ir with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate sender accepted"

let test_summary_counts () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  Alcotest.(check int) "ranks" 4 (Ir.num_ranks ir);
  Alcotest.(check int) "channels" 1 (Ir.num_channels ir);
  Alcotest.(check bool) "steps counted" true (Ir.num_steps ir > 0);
  let ir2 = Ir.with_proto ir T.Protocol.LL in
  Alcotest.(check bool) "with_proto" true (ir2.Ir.proto = T.Protocol.LL)

let test_file_io () =
  let ir = A.Alltonext.ir ~nodes:2 ~gpus_per_node:2 () in
  let path = Filename.temp_file "msccl" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xml.save ir path;
      let back =
        match I.load path with
        | Ok (ir, []) -> ir
        | Ok (_, ds) | Error ds ->
            Alcotest.failf "load drew diagnostics:\n%s" (I.diags_to_string ds)
      in
      Alcotest.(check bool) "file round-trip" true (Testutil.ir_equal ir back))

(* Registry-wide round-trip: every algorithm the registry can build, in
   several configurations (including instances=2, whose blocked
   replication wraps the collective in a Custom — the shape-only case of
   the serializer), must satisfy Ir -> Xml -> Ir losslessness under
   Ir.equal and print stably. Algorithms whose preconditions reject a
   configuration (e.g. hierarchical schedules on one node) are skipped,
   but most of the registry must be exercised. *)
let test_registry_roundtrip () =
  let configs =
    [
      ("1x8", { H.Registry.default_params with H.Registry.verify = false });
      ( "2x8",
        {
          H.Registry.default_params with
          H.Registry.nodes = 2;
          verify = false;
        } );
      ( "1x8 r2",
        {
          H.Registry.default_params with
          H.Registry.instances = 2;
          verify = false;
        } );
    ]
  in
  let built = ref 0 in
  List.iter
    (fun (spec : H.Registry.spec) ->
      List.iter
        (fun (label, params) ->
          match spec.H.Registry.build params with
          | exception _ -> ()
          | ir ->
              incr built;
              let s = Xml.to_string ir in
              let back =
                ingest_clean
                  (Printf.sprintf "%s (%s)" spec.H.Registry.name label)
                  s
              in
              if not (Ir.equal ir back) then
                Alcotest.failf "%s (%s): round-trip changed the IR"
                  spec.H.Registry.name label;
              if not (String.equal s (Xml.to_string back)) then
                Alcotest.failf "%s (%s): second print differs"
                  spec.H.Registry.name label)
        configs)
    H.Registry.all;
  if !built < 12 then
    Alcotest.failf "only %d registry builds succeeded; sweep too weak" !built

(* Pinned outputs: the md5 of every registry algorithm's printed XML on
   the presets [msccl lint --all] compiles, and the parsed trees of the
   dialect corpus with every element and attribute position. A mismatch
   is a change of the on-disk format or of reported positions. *)
let pins_dir = "corpus/xml-pins"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_printer_pins () =
  let b = Buffer.create 8192 in
  List.iter
    (fun (spec : H.Registry.spec) ->
      List.iter
        (fun (c : H.Lint_sweep.config) ->
          let params =
            {
              H.Registry.default_params with
              H.Registry.nodes = c.H.Lint_sweep.c_nodes;
              gpus_per_node = c.H.Lint_sweep.c_gpus;
              proto = c.H.Lint_sweep.c_proto;
              verify = false;
            }
          in
          let digest =
            match spec.H.Registry.build params with
            | ir -> Digest.to_hex (Digest.string (Xml.to_string ir))
            | exception _ -> "skipped"
          in
          Printf.bprintf b "%s %s %s %s\n" spec.H.Registry.name
            c.H.Lint_sweep.c_label
            (T.Protocol.name c.H.Lint_sweep.c_proto)
            digest)
        H.Lint_sweep.default_configs)
    H.Registry.all;
  Alcotest.(check string)
    "registry XML digests"
    (read_file (Filename.concat pins_dir "registry.md5"))
    (Buffer.contents b)

let rec dump_tree b indent (t : Xml.tree) =
  Printf.bprintf b "%s<%s> %d:%d\n" indent t.Xml.tag t.Xml.t_pos.Xml.line
    t.Xml.t_pos.Xml.col;
  List.iter2
    (fun (k, v) (k', (p : Xml.pos)) ->
      assert (String.equal k k');
      Printf.bprintf b "%s  %s=%S %d:%d\n" indent k v p.Xml.line p.Xml.col)
    t.Xml.attrs t.Xml.t_attr_pos;
  List.iter (dump_tree b (indent ^ "  ")) t.Xml.children

let test_parse_tree_pins () =
  let dir = "corpus/xml-dialect" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
  in
  Alcotest.(check bool) "dialect files found" true (files <> []);
  List.iter
    (fun f ->
      let b = Buffer.create 4096 in
      dump_tree b "" (Xml.parse_tree (read_file (Filename.concat dir f)));
      Alcotest.(check string)
        (f ^ " tree")
        (read_file
           (Filename.concat pins_dir (Filename.remove_extension f ^ ".tree")))
        (Buffer.contents b))
    files

let test_ir_equal_discriminates () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  Alcotest.(check bool) "reflexive" true (Ir.equal ir ir);
  Alcotest.(check bool) "name matters" false
    (Ir.equal ir { ir with Ir.name = "other" });
  Alcotest.(check bool) "proto matters" false
    (Ir.equal ir (Ir.with_proto ir T.Protocol.LL));
  let dropped_step =
    {
      ir with
      Ir.gpus =
        Array.mapi
          (fun i (g : Ir.gpu) ->
            if i <> 0 then g
            else
              {
                g with
                Ir.tbs =
                  Array.mapi
                    (fun j (tb : Ir.tb) ->
                      if j <> 0 then tb
                      else
                        {
                          tb with
                          Ir.steps =
                            Array.sub tb.Ir.steps 0
                              (Array.length tb.Ir.steps - 1);
                        })
                    g.Ir.tbs;
              })
          ir.Ir.gpus;
    }
  in
  Alcotest.(check bool) "steps matter" false (Ir.equal ir dropped_step)

let () =
  Alcotest.run "ir-xml"
    [
      ( "xml",
        [
          Testutil.tc "parse tree" test_parse_tree;
          Testutil.tc "parse errors" test_parse_errors;
          roundtrip "ring allreduce" (A.Ring_allreduce.ir ~num_ranks:4 ());
          roundtrip "hierarchical"
            (A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:3 ());
          roundtrip "alltonext with instances"
            (A.Alltonext.ir ~instances:2 ~nodes:2 ~gpus_per_node:3 ());
          roundtrip "broadcast root 2"
            (A.Broadcast_ring.ir ~num_ranks:5 ~root:2 ~chunk_factor:2 ());
          Testutil.tc "file io" test_file_io;
          Testutil.tc "registry-wide round-trip" test_registry_roundtrip;
          Testutil.tc "printer pins" test_printer_pins;
          Testutil.tc "parse tree pins" test_parse_tree_pins;
          Testutil.tc "Ir.equal discriminates" test_ir_equal_discriminates;
        ] );
      ( "validation",
        [
          Testutil.tc "rejects bad peers" test_validate_rejects;
          Testutil.tc "connection exclusivity"
            test_validate_connection_exclusivity;
          Testutil.tc "summary counts" test_summary_counts;
        ] );
    ]

(* Tests for the static analyzer and the Chrome-tracing timeline. *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms

let test_analyze_ring () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  let a = Analysis.analyze ir in
  Alcotest.(check int) "ranks" 4 a.Analysis.ranks;
  Alcotest.(check int) "steps" (Ir.num_steps ir) a.Analysis.total_steps;
  (* Ring latency: a chunk crosses 2(R-1) = 6 hops; the critical path is at
     least that and at most the whole program. *)
  Alcotest.(check bool) "critical path >= 6" true (a.Analysis.critical_path >= 6);
  Alcotest.(check bool) "critical path <= total" true
    (a.Analysis.critical_path <= a.Analysis.total_steps);
  Alcotest.(check bool) "ring fuses" true (a.Analysis.fused_steps > 0);
  (* 4 ranks, 1 channel: exactly 4 connections, equally loaded. *)
  Alcotest.(check int) "connections" 4 (List.length a.Analysis.connections);
  List.iter
    (fun c ->
      Alcotest.(check int) "balanced" a.Analysis.max_chunks_per_connection
        c.Analysis.conn_chunks)
    a.Analysis.connections

let test_analyze_scaling () =
  (* Replication multiplies steps and connections but not the critical
     path. *)
  let base = A.Ring_allreduce.ir ~num_ranks:4 () in
  let r3 = Instances.blocked base ~instances:3 in
  let a1 = Analysis.analyze base and a3 = Analysis.analyze r3 in
  Alcotest.(check int) "3x steps" (3 * a1.Analysis.total_steps)
    a3.Analysis.total_steps;
  Alcotest.(check int) "3x connections"
    (3 * List.length a1.Analysis.connections)
    (List.length a3.Analysis.connections);
  Alcotest.(check int) "same critical path" a1.Analysis.critical_path
    a3.Analysis.critical_path

let test_analyze_latency_algorithms () =
  (* All Pairs has a much shorter critical path than Ring — that is its
     whole point (§7.1.2: 2 steps vs 2R-2). *)
  let ring = Analysis.analyze (A.Ring_allreduce.ir ~num_ranks:8 ()) in
  let allpairs = Analysis.analyze (A.Allpairs_allreduce.ir ~num_ranks:8 ()) in
  Alcotest.(check bool) "allpairs path shorter" true
    (allpairs.Analysis.critical_path < ring.Analysis.critical_path);
  let pp = Format.asprintf "%a" Analysis.pp ring in
  Alcotest.(check bool) "report renders" true (String.length pp > 0)

let test_timeline_capture () =
  let topo = T.Presets.ndv4 ~nodes:1 in
  let ir = A.Ring_allreduce.ir ~num_ranks:8 () in
  let tl = Timeline.create () in
  let r = Simulator.run_buffer ~topo ~buffer_bytes:1048576. ~timeline:tl ir in
  (* One span per executed instruction-tile plus one per transfer. *)
  Alcotest.(check int) "spans = instr execs + transfers"
    ((Ir.num_steps ir * r.Simulator.tiles) + r.Simulator.messages)
    (Timeline.num_events tl);
  let json = Testutil.reparse (Timeline.to_chrome_json tl) in
  (match Json.member "traceEvents" json with
  | Json.List evs ->
      Alcotest.(check int) "one trace event per span" (Timeline.num_events tl)
        (List.length evs)
  | _ -> Alcotest.fail "no traceEvents array");
  Alcotest.(check bool) "display unit" true
    (Json.member "displayTimeUnit" json = Json.String "ms")

let test_timeline_save () =
  let tl = Timeline.create () in
  Timeline.add tl ~name:"x\"y" ~cat:"c" ~pid:0 ~tid:0 ~ts:1e-6 ~dur:2e-6;
  let path = Filename.temp_file "msccl" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.to_file path (Timeline.to_chrome_json tl);
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok json -> (
          match Json.member "traceEvents" json with
          | Json.List [ e ] ->
              Alcotest.(check bool) "escaped quote" true
                (Json.member "name" e = Json.String "x\"y");
              Alcotest.(check bool) "ts in us" true
                (Json.member "ts" e = Json.Float 1.);
              Alcotest.(check bool) "dur in us" true
                (Json.member "dur" e = Json.Float 2.)
          | _ -> Alcotest.fail "expected one trace event")
      | Error m -> Alcotest.failf "saved trace is not JSON: %s" m)

let () =
  Alcotest.run "analysis-timeline"
    [
      ( "analysis",
        [
          Testutil.tc "ring structure" test_analyze_ring;
          Testutil.tc "replication scaling" test_analyze_scaling;
          Testutil.tc "latency algorithms" test_analyze_latency_algorithms;
        ] );
      ( "timeline",
        [
          Testutil.tc "capture" test_timeline_capture;
          Testutil.tc "save + escaping" test_timeline_save;
        ] );
    ]

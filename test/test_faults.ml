(* Chaos layer tests: engine capacity events, fault plans, the hang
   watchdog's blocked-wait diagnosis, and campaign determinism. *)

module E = Msccl_sim.Engine
module T = Msccl_topology
module A = Msccl_algorithms
module H = Msccl_harness
module Plan = Msccl_faults.Plan
open Msccl_core

let close = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Engine: time-varying capacities                                     *)
(* ------------------------------------------------------------------ *)

(* 100 bytes at 10 B/s, halved to 5 B/s at t=5: 50 bytes remain, so the
   flow finishes at 5 + 50/5 = 15. *)
let test_set_capacity_rerates () =
  let eng = E.create ~capacities:[| 10. |] in
  let finished = ref nan in
  E.start_flow eng ~bytes:100. ~hops:[| 0 |] ~cap:infinity (fun () ->
      finished := E.now eng);
  E.after eng 5. (fun () -> E.set_capacity eng 0 5.);
  E.run eng;
  close "re-rated completion" 15. !finished

(* Kill at t=2 (20 bytes done), restore at t=7: the 80 remaining bytes
   finish at 7 + 8 = 15. While dead the flow is active but not
   progressing, and schedules no events. *)
let test_kill_and_restore () =
  let eng = E.create ~capacities:[| 10. |] in
  let finished = ref nan in
  E.start_flow eng ~bytes:100. ~hops:[| 0 |] ~cap:infinity (fun () ->
      finished := E.now eng);
  E.after eng 2. (fun () -> E.set_capacity eng 0 0.);
  E.after eng 4. (fun () ->
      Alcotest.(check int) "active while dead" 1 (E.active_flows eng);
      Alcotest.(check int) "not progressing" 0 (E.progressing_flows eng));
  E.after eng 7. (fun () -> E.set_capacity eng 0 10.);
  E.run eng;
  close "revived completion" 15. !finished

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let check_invalid name substring f =
  match f () with
  | exception Invalid_argument m ->
      if not (contains m substring) then
        Alcotest.failf "%s: message %S lacks %S" name m substring
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_schedule_rejects () =
  let eng = E.create ~capacities:[| 1. |] in
  E.after eng 3. (fun () -> ());
  E.run eng;
  check_invalid "past time" "in the past (now = 3)" (fun () ->
      E.at eng 1. (fun () -> ()));
  check_invalid "negative delay" "negative delay -2" (fun () ->
      E.after eng (-2.) (fun () -> ()));
  check_invalid "nan time" "NaN" (fun () -> E.at eng nan (fun () -> ()));
  check_invalid "bad rid" "bad resource id 5" (fun () ->
      E.set_capacity eng 5 1.);
  check_invalid "negative capacity" "bad capacity -1" (fun () ->
      E.set_capacity eng 0 (-1.))

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let degrade ?until_s ~factor ~from_s src dst =
  Plan.Degrade { target = Plan.Route { src; dst }; factor; from_s; until_s }

let test_plan_validation () =
  check_invalid "negative factor" "factor" (fun () ->
      Plan.make [ degrade ~factor:(-0.5) ~from_s:0. 0 1 ]);
  check_invalid "empty window" "window" (fun () ->
      Plan.make [ degrade ~factor:0.5 ~from_s:2. ~until_s:1. 0 1 ]);
  check_invalid "zero straggler" "alpha" (fun () ->
      Plan.make [ Plan.Straggler { rank = 0; alpha = 0.; beta = 1.; gamma = 1. } ]);
  check_invalid "negative delay" "delay" (fun () ->
      Plan.make [ Plan.Slot_stall { src = 0; dst = 1; chan = None; delay_s = -1. } ])

let test_is_benign () =
  let benign p = Plan.is_benign (Plan.make p) in
  Alcotest.(check bool) "degrade to half" true
    (benign [ degrade ~factor:0.5 ~from_s:0. 0 1 ]);
  Alcotest.(check bool) "permanent kill" false
    (benign [ degrade ~factor:0. ~from_s:0. 0 1 ]);
  Alcotest.(check bool) "kill with restore" true
    (benign [ degrade ~factor:0. ~from_s:0. ~until_s:1. 0 1 ]);
  Alcotest.(check bool) "speed-up straggler" false
    (benign [ Plan.Straggler { rank = 0; alpha = 0.5; beta = 1.; gamma = 1. } ]);
  Alcotest.(check bool) "slowdown straggler" true
    (benign [ Plan.Straggler { rank = 0; alpha = 2.; beta = 1.5; gamma = 1. } ])

(* Two overlapping windows on the same resource compose by multiplying
   factors; the schedule emits only actual changes, sorted by time. *)
let test_capacity_events_compose () =
  let topo = T.Presets.ndv4 ~nodes:1 in
  let name = "rank0/egress" in
  let base =
    match T.Topology.find_resource topo name with
    | Some r -> r.T.Topology.capacity
    | None -> Alcotest.failf "no resource %s" name
  in
  let plan =
    Plan.make
      [
        Plan.Degrade
          {
            target = Plan.Resource_named name;
            factor = 0.5;
            from_s = 1.;
            until_s = Some 3.;
          };
        Plan.Degrade
          {
            target = Plan.Resource_named name;
            factor = 0.25;
            from_s = 2.;
            until_s = Some 4.;
          };
      ]
  in
  let events = Plan.capacity_events ~topo (Plan.resolve ~topo plan) in
  let got = List.map (fun (t, _, c) -> (t, c /. base)) events in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "piecewise factors"
    [ (1., 0.5); (2., 0.125); (3., 0.25); (4., 1.) ]
    got

let test_random_deterministic_and_benign () =
  let topo = T.Presets.ndv4 ~nodes:1 in
  for seed = 0 to 20 do
    let p1 = Plan.random ~seed ~severity:0.7 ~topo in
    let p2 = Plan.random ~seed ~severity:0.7 ~topo in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d reproducible" seed)
      true (p1 = p2);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d benign" seed)
      true (Plan.is_benign p1)
  done

(* ------------------------------------------------------------------ *)
(* Simulator: hang diagnosis and degradation                           *)
(* ------------------------------------------------------------------ *)

let ring8 = A.Ring_allreduce.ir ~verify:false ~num_ranks:8 ()
let topo8 = T.Presets.ndv4 ~nodes:1

let sim ?faults ?timeline ?watchdog_s () =
  Simulator.run_buffer ~topo:topo8 ~buffer_bytes:(1024. *. 1024.)
    ~check_occupancy:false ?faults ?timeline ?watchdog_s ring8

let kill_plan = Plan.make [ degrade ~factor:0. ~from_s:0. 0 1 ]

(* Killing one ring link must end in a structured hang diagnosis, not an
   infinite loop: every unfinished thread block parked on a named wait. *)
let test_ring_link_kill_hangs () =
  match sim ~faults:kill_plan ~watchdog_s:0.01 () with
  | _ -> Alcotest.fail "expected Hang"
  | exception Simulator.Hang h ->
      Alcotest.(check bool) "hang after watchdog" true (h.Simulator.h_time >= 0.01);
      Alcotest.(check int)
        "every unfinished tb diagnosed"
        (h.Simulator.h_total_tbs - h.Simulator.h_finished_tbs)
        (List.length h.Simulator.h_blocked);
      Alcotest.(check bool) "some tbs blocked" true (h.Simulator.h_blocked <> []);
      let stalled_sender =
        List.exists
          (fun b ->
            match b.Simulator.b_wait with
            | Simulator.On_transfer { peer = 1; chan = _ } ->
                b.Simulator.b_ctx.Simulator.cx_rank = 0
            | _ -> false)
          h.Simulator.h_blocked
      in
      Alcotest.(check bool) "rank 0's send to rank 1 named as stalled" true
        stalled_sender;
      (* The message renders every wait. *)
      let msg = Simulator.hang_message h in
      List.iter
        (fun affix ->
          if not (contains msg affix) then
            Alcotest.failf "hang message lacks %S:\n%s" affix msg)
        [ "rank 0"; "stalled in flight" ]

(* The same link killed but restored is benign: the run completes, and
   strictly later than the fault-free baseline. *)
let test_restore_completes_slower () =
  let baseline = (sim ()).Simulator.time in
  let restore =
    Plan.make [ degrade ~factor:0. ~from_s:0. ~until_s:(2. *. baseline) 0 1 ]
  in
  let faulted = (sim ~faults:restore ()).Simulator.time in
  Alcotest.(check bool)
    (Printf.sprintf "%.6g strictly above baseline %.6g" faulted baseline)
    true
    (faulted > baseline)

(* Every benign fault family can only delay the run. *)
let test_benign_faults_monotone () =
  let baseline = (sim ()).Simulator.time in
  List.iter
    (fun (name, fault) ->
      let t = (sim ~faults:(Plan.make [ fault ]) ()).Simulator.time in
      if t < baseline *. (1. -. 1e-9) then
        Alcotest.failf "%s: %.9g beats baseline %.9g" name t baseline)
    [
      ("degrade", degrade ~factor:0.3 ~from_s:0. 0 1);
      ("straggler", Plan.Straggler { rank = 3; alpha = 3.; beta = 2.; gamma = 2. });
      ("slot stall", Plan.Slot_stall { src = 0; dst = 1; chan = None; delay_s = 2e-6 });
      ("sem delay", Plan.Sem_delay { rank = 2; tb = None; delay_s = 1e-6 });
    ]

let test_faulted_sim_deterministic () =
  let faults = Plan.random ~seed:42 ~severity:0.8 ~topo:topo8 in
  let a = sim ~faults () and b = sim ~faults () in
  close "same time" a.Simulator.time b.Simulator.time;
  Alcotest.(check int) "same events" a.Simulator.events b.Simulator.events

(* ------------------------------------------------------------------ *)
(* Timeline: fault windows and blocked spans in the Chrome trace       *)
(* ------------------------------------------------------------------ *)

(* Golden shape for the fault track: pid is num_ranks + 1, the name is
   "<resource> x<factor>", and the span is clipped to the run. *)
let test_trace_fault_spans () =
  let tl = Timeline.create () in
  let faults =
    Plan.make [ degrade ~factor:0.5 ~from_s:0. ~until_s:1e-4 0 1 ]
  in
  let _ = sim ~faults ~timeline:tl () in
  let json = Json.to_string (Timeline.to_chrome_json tl) in
  List.iter
    (fun affix ->
      if not (contains json affix) then Alcotest.failf "trace lacks %S" affix)
    [
      "{\"name\":\"rank0/egress x0.5\",\"cat\":\"fault\",\"ph\":\"X\",\"pid\":9,";
      "{\"name\":\"rank1/ingress x0.5\",\"cat\":\"fault\",\"ph\":\"X\",\"pid\":9,";
    ]

let test_trace_blocked_spans () =
  let tl = Timeline.create () in
  (match sim ~faults:kill_plan ~watchdog_s:0.01 ~timeline:tl () with
  | _ -> Alcotest.fail "expected Hang"
  | exception Simulator.Hang _ -> ());
  let json = Json.to_string (Timeline.to_chrome_json tl) in
  List.iter
    (fun affix ->
      if not (contains json affix) then Alcotest.failf "trace lacks %S" affix)
    [ "\"cat\":\"blocked\""; "stalled in flight" ]

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let test_campaign_jobs_identical () =
  let report jobs =
    match
      H.Chaos.run ~jobs ~algos:[ "ring-allreduce"; "allpairs-allreduce" ]
        ~severities:[ 0.0; 0.5; 1.0 ] ()
    with
    | Ok entries -> Json.to_string (H.Chaos.to_json ~seed:0 entries)
    | Error m -> Alcotest.failf "campaign failed: %s" m
  in
  Alcotest.(check string) "jobs=1 vs jobs=8" (report 1) (report 8)

let test_quick_campaign_survives () =
  match H.Chaos.quick () with
  | Error m -> Alcotest.failf "quick campaign failed: %s" m
  | Ok entries ->
      Alcotest.(check int) "no unexpected hangs" 0
        (List.length (H.Chaos.unexpected_hangs entries));
      List.iter
        (fun e ->
          match H.Chaos.degradation e with
          | Some d when d < 1. -. 1e-9 ->
              Alcotest.failf "%s sped up under faults (x%.6f)"
                e.H.Chaos.x_algo d
          | _ -> ())
        entries

let () =
  Alcotest.run "faults"
    [
      ( "engine",
        [
          Testutil.tc "set_capacity re-rates flows" test_set_capacity_rerates;
          Testutil.tc "kill and restore revives flows" test_kill_and_restore;
          Testutil.tc "scheduling rejects bad inputs" test_schedule_rejects;
        ] );
      ( "plan",
        [
          Testutil.tc "validation" test_plan_validation;
          Testutil.tc "is_benign" test_is_benign;
          Testutil.tc "capacity events compose" test_capacity_events_compose;
          Testutil.tc "random plans deterministic and benign"
            test_random_deterministic_and_benign;
        ] );
      ( "watchdog",
        [
          Testutil.tc "ring link kill yields a diagnosis"
            test_ring_link_kill_hangs;
          Testutil.tc "kill with restore completes slower"
            test_restore_completes_slower;
          Testutil.tc "benign faults only delay" test_benign_faults_monotone;
          Testutil.tc "faulted simulation deterministic"
            test_faulted_sim_deterministic;
        ] );
      ( "timeline",
        [
          Testutil.tc "fault windows exported" test_trace_fault_spans;
          Testutil.tc "blocked spans exported on hang"
            test_trace_blocked_spans;
        ] );
      ( "campaign",
        [
          Testutil.tc "byte-identical across job counts"
            test_campaign_jobs_identical;
          Testutil.tc "quick campaign survives" test_quick_campaign_survives;
        ] );
    ]

(* Timing simulator tests: protocol behavior, contention, occupancy,
   determinism (paper §6's runtime model). *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms
module H = Msccl_harness

let read_file path = In_channel.with_open_bin path In_channel.input_all

let topo1 = T.Presets.ndv4 ~nodes:1

let time ?max_tiles ?(topo = topo1) ir bytes =
  (Simulator.run_buffer ~topo ~buffer_bytes:bytes ?max_tiles
     ~check_occupancy:false ir)
    .Simulator.time

let ring proto = A.Ring_allreduce.ir ~proto ~num_ranks:8 ()

let test_monotone_in_size () =
  let ir = ring T.Protocol.Simple in
  let rec go prev = function
    | [] -> ()
    | s :: rest ->
        let t = time ir s in
        Alcotest.(check bool) "monotone" true (t >= prev);
        go t rest
  in
  go 0. [ 1024.; 65536.; 1048576.; 16777216. ]

let test_protocol_tradeoff () =
  (* LL wins tiny buffers (lower alpha), Simple wins huge ones (full
     bandwidth) — the §6.1 protocol tradeoff. *)
  let ll = ring T.Protocol.LL and simple = ring T.Protocol.Simple in
  Alcotest.(check bool) "LL faster at 8KB" true (time ll 8192. < time simple 8192.);
  Alcotest.(check bool) "Simple faster at 256MB" true
    (time simple 268435456. < time ll 268435456.)

let test_parallelization_helps_large () =
  (* One thread block cannot saturate NVLink (§5.1): more instances win at
     large sizes, lose at small ones. *)
  let r1 = ring T.Protocol.Simple in
  let r8 = Instances.blocked r1 ~instances:8 in
  Alcotest.(check bool) "r8 faster at 256MB" true
    (time r8 268435456. < time r1 268435456.);
  Alcotest.(check bool) "r1 faster at 4KB" true (time r1 4096. < time r8 4096.)

let test_launch_overhead_visible () =
  let ir = ring T.Protocol.LL in
  let r = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1024. ir in
  Alcotest.(check bool) "kernel_time < time" true
    (r.Simulator.kernel_time < r.Simulator.time);
  Alcotest.(check bool) "time includes launch" true
    (r.Simulator.time >= T.Topology.launch_overhead topo1)

let test_occupancy_check () =
  let big = Instances.blocked (ring T.Protocol.Simple) ~instances:200 in
  match Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1048576. big with
  | exception Simulator.Sim_error _ -> ()
  | _ -> Alcotest.fail "200 TBs per GPU accepted on 108 SMs"

let test_rank_mismatch () =
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  match Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1024. ir with
  | exception Simulator.Sim_error _ -> ()
  | _ -> Alcotest.fail "4-rank IR on 8-GPU topology accepted"

let test_deterministic () =
  let ir = A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:8 () in
  let topo = T.Presets.ndv4 ~nodes:2 in
  let t1 = time ~topo ir 4194304. and t2 = time ~topo ir 4194304. in
  Alcotest.(check (float 0.)) "bit-identical" t1 t2

let test_tiles_cap () =
  let ir = ring T.Protocol.Simple in
  let r =
    Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1073741824. ~max_tiles:2 ir
  in
  Alcotest.(check int) "respects max_tiles" 2 r.Simulator.tiles;
  let r1 =
    Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1024. ~max_tiles:8 ir
  in
  Alcotest.(check int) "small buffers need one tile" 1 r1.Simulator.tiles

let test_wire_bytes_accounting () =
  (* A ring moves 2*(R-1)/R of the buffer per GPU; with LL the wire volume
     doubles. *)
  let bytes = 8388608. in
  let simple = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:bytes (ring T.Protocol.Simple) in
  let ll = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:bytes (ring T.Protocol.LL) in
  let expected = 8. *. bytes *. (2. *. 7. /. 8.) in
  Alcotest.(check bool) "simple wire volume" true
    (abs_float (simple.Simulator.wire_bytes -. expected) /. expected < 0.01);
  Alcotest.(check bool) "LL doubles wire bytes" true
    (abs_float ((ll.Simulator.wire_bytes /. simple.Simulator.wire_bytes) -. 2.)
    < 0.01)

let test_ib_serialization () =
  (* Two nodes: cross-node sends on one connection serialize on the NIC
     proxy, so doubling the message count roughly doubles the time at
     bandwidth-bound sizes. *)
  let topo = T.Presets.hierarchical ~nodes:2 ~gpus_per_node:1 () in
  let coll cf = Collective.make Collective.Alltonext ~num_ranks:2 ~chunk_factor:cf () in
  let one =
    Compile.ir ~verify:false (coll 1) (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c ~rank:1 Buffer_id.Output ~index:0 ()))
  in
  let t1 = time ~topo ~max_tiles:1 one 33554432. in
  let t_half = time ~topo ~max_tiles:1 one 16777216. in
  Alcotest.(check bool) "bandwidth bound" true (t1 > 1.7 *. t_half)

let test_algbw () =
  let r = Simulator.run_buffer ~topo:topo1 ~buffer_bytes:1048576. (ring T.Protocol.Simple) in
  Alcotest.(check (float 1e-6)) "algbw definition"
    (1048576. /. r.Simulator.time)
    (Simulator.algbw ~buffer_bytes:1048576. r)

(* Non-finite chunk sizes used to make the run loop forever; they are
   rejected. A finite absurd size must still terminate. *)
let test_nonfinite_chunk_rejected () =
  List.iter
    (fun c ->
      match Simulator.run ~topo:topo1 ~chunk_bytes:c (ring T.Protocol.Simple) with
      | _ -> Alcotest.failf "chunk_bytes %g accepted" c
      | exception Simulator.Sim_error _ -> ())
    [ Float.nan; infinity ]

let test_absurd_chunk_terminates () =
  let r = Simulator.run ~topo:topo1 ~chunk_bytes:1e300 (ring T.Protocol.Simple) in
  Alcotest.(check bool) "finite time" true (Float.is_finite r.Simulator.time);
  Alcotest.(check int) "max tiles" 4 r.Simulator.tiles

(* Pinned simulated times: [Simulator.run_buffer] over the registry, the
   three preset families (NVLink dgx1, NVSwitch dgx2, NVSwitch + IB
   ndv4), three protocols, r in {1, 2, 4} and 1 KB .. 1 GB, plus a cohort
   run and three fault plans (which drive the engine's capacity changes).
   Times are stored as hex floats. Messages and tiles
   must match exactly; a time must match exactly or within 1e-7 relative
   (a flow-engine rewrite may reorder same-instant ties, which moves a
   time by the sub-byte completion residue). On a mismatch the computed
   table is written to [sim-pins.actual] in the test's working directory,
   which is how the table is re-recorded; pins that match only within the
   tolerance are listed in the test's output. *)
let pins_file = "corpus/sim-pins/registry.pins"

let pin_configs =
  (* label, nodes, gpus per node, protocols, instances *)
  let all3 = [ T.Protocol.Simple; T.Protocol.LL; T.Protocol.LL128 ] in
  [
    ("ndv4:1", 1, 8, all3, [ 1; 2 ]);
    ("ndv4:2", 2, 8, all3, [ 1; 2 ]);
    ("dgx2:1", 1, 16, all3, [ 1; 4 ]);
    ("dgx1", 1, 8, [ T.Protocol.Simple ], [ 1; 2 ]);
  ]

let pin_sizes = [ 1024.; 1048576.; 1073741824. ]

let pin_line b key (r : Simulator.result) =
  Printf.bprintf b "%s %h %d %d\n" key r.Simulator.time r.Simulator.messages
    r.Simulator.tiles

let compute_pins () =
  let b = Buffer.create 65536 in
  List.iter
    (fun (spec : H.Registry.spec) ->
      List.iter
        (fun (label, nodes, gpus, protos, rs) ->
          let topo = Result.get_ok (H.Registry.parse_topology label) in
          List.iter
            (fun proto ->
              List.iter
                (fun r ->
                  let params =
                    {
                      H.Registry.default_params with
                      H.Registry.nodes;
                      gpus_per_node = gpus;
                      proto;
                      instances = r;
                      verify = false;
                    }
                  in
                  match spec.H.Registry.build params with
                  | exception _ -> ()
                  | ir ->
                      List.iter
                        (fun size ->
                          let key =
                            Printf.sprintf "%s %s %s r%d %.0f"
                              spec.H.Registry.name label
                              (T.Protocol.name proto) r size
                          in
                          match
                            Simulator.run_buffer ~topo ~buffer_bytes:size
                              ~check_occupancy:false ir
                          with
                          | res -> pin_line b key res
                          | exception Simulator.Sim_error _ -> ())
                        pin_sizes)
                rs)
            protos)
        pin_configs)
    H.Registry.all;
  (* Cohort simulation: allpairs@16 on two ndv4 nodes batches by stride 8. *)
  let topo16 = T.Presets.ndv4 ~nodes:2 in
  let coll =
    Collective.make Collective.Allreduce ~num_ranks:16 ~chunk_factor:16
      ~inplace:true ()
  in
  let rep =
    Replicate.run ~name:"allpairs"
      ~hint:(A.Allpairs_allreduce.hint ~num_ranks:16)
      coll
  in
  List.iter
    (fun size ->
      let res, co =
        Simulator.run_sym ~topo:topo16 ~chunk_bytes:(size /. 16.)
          ~check_occupancy:false rep
      in
      pin_line b
        (Printf.sprintf "cohort:allpairs ndv4:2 stride%d %.0f"
           co.Simulator.co_stride size)
        res)
    pin_sizes;
  (* Two benign random fault plans, and a link killed mid-run then
     restored: each drives [Engine.set_capacity], the last one while
     flows are in flight. *)
  let module Plan = Msccl_faults.Plan in
  let kill_restore =
    Plan.make
      [
        Plan.Degrade
          {
            target = Plan.Route { src = 7; dst = 8 };
            factor = 0.;
            from_s = 2e-5;
            until_s = Some 1e-4;
          };
      ]
  in
  List.iter
    (fun (label, name, faults) ->
      let spec = Option.get (H.Registry.find name) in
      let ir =
        spec.H.Registry.build
          { H.Registry.default_params with H.Registry.nodes = 2; verify = false }
      in
      List.iter
        (fun size ->
          pin_line b
            (Printf.sprintf "faults:%s %s ndv4:2 %.0f" label name size)
            (Simulator.run_buffer ~topo:topo16 ~buffer_bytes:size
               ~check_occupancy:false ~faults ir))
        pin_sizes)
    [
      ("seed3", "ring-allreduce", Plan.random ~seed:3 ~severity:0.8 ~topo:topo16);
      ( "seed11",
        "two-step-alltoall",
        Plan.random ~seed:11 ~severity:0.8 ~topo:topo16 );
      ("kill7-8", "ring-allreduce", kill_restore);
    ];
  Buffer.contents b

let parse_pins text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match List.rev (String.split_on_char ' ' l) with
         | tiles :: msgs :: time :: rkey ->
             ( String.concat " " (List.rev rkey),
               (float_of_string time, int_of_string msgs, int_of_string tiles)
             )
         | _ -> Alcotest.failf "malformed pin line %S" l)

let test_sim_pins () =
  let actual = compute_pins () in
  let expected = parse_pins (read_file pins_file) in
  let got = parse_pins actual in
  let fail fmt =
    Out_channel.with_open_bin "sim-pins.actual" (fun oc ->
        output_string oc actual);
    Alcotest.failf fmt
  in
  if List.length got < 500 then
    Alcotest.failf "only %d runs succeeded; pin table too weak"
      (List.length got);
  if List.map fst expected <> List.map fst got then
    fail "pinned runs differ (%d pinned, %d computed)" (List.length expected)
      (List.length got);
  List.iter2
    (fun (key, (t0, m0, k0)) (_, (t1, m1, k1)) ->
      if m0 <> m1 || k0 <> k1 then
        fail "%s: messages/tiles %d/%d, pinned %d/%d" key m1 k1 m0 k0;
      if Float.abs (t1 -. t0) > 1e-7 *. Float.abs t0 then
        fail "%s: time %h, pinned %h" key t1 t0;
      if t1 <> t0 then Printf.printf "pin %s: %h vs pinned %h\n" key t1 t0)
    expected got

let () =
  Alcotest.run "simulator"
    [
      ( "model",
        [
          Testutil.tc "monotone in size" test_monotone_in_size;
          Testutil.tc "protocol tradeoff" test_protocol_tradeoff;
          Testutil.tc "parallelization" test_parallelization_helps_large;
          Testutil.tc "launch overhead" test_launch_overhead_visible;
          Testutil.tc "wire accounting" test_wire_bytes_accounting;
          Testutil.tc "IB proxy" test_ib_serialization;
        ] );
      ( "interface",
        [
          Testutil.tc "occupancy" test_occupancy_check;
          Testutil.tc "rank mismatch" test_rank_mismatch;
          Testutil.tc "deterministic" test_deterministic;
          Testutil.tc "tile cap" test_tiles_cap;
          Testutil.tc "algbw" test_algbw;
          Testutil.tc "non-finite chunk rejected" test_nonfinite_chunk_rejected;
          Testutil.tc "absurd chunk terminates" test_absurd_chunk_terminates;
        ] );
      ("pins", [ Testutil.tc "registry simulated times" test_sim_pins ]);
    ]

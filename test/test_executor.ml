(* Executor tests: numeric correctness, FIFO blocking, deadlock detection
   (paper §6.2's runtime semantics, functionally). *)

open Msccl_core
module T = Msccl_topology
module A = Msccl_algorithms

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let numeric name ir = Testutil.tc name (fun () -> Testutil.check_numeric name ir)

let loc rank buf index = Loc.make ~rank ~buf ~index ~count:1

let mk_step s op ?src ?dst ?(depends = []) ?(has_dep = false) () =
  { Ir.s; op; src; dst; count = 1; depends; has_dep }

(* Hand-written IR where both GPUs first wait to receive and only then
   send: a classic deadlock the dynamic detector must report. *)
let deadlocked_ir () =
  let coll = Collective.make Collective.Allgather ~num_ranks:2 () in
  let gpu id peer =
    {
      Ir.gpu_id = id;
      input_chunks = 1;
      output_chunks = 2;
      scratch_chunks = 0;
      tbs =
        [|
          {
            Ir.tb_id = 0;
            send = peer;
            recv = peer;
            chan = 0;
            steps =
              [|
                mk_step 0 Instr.Recv ~dst:(loc id Buffer_id.Output peer) ();
                mk_step 1 Instr.Send ~src:(loc id Buffer_id.Input 0) ();
              |];
          };
        |];
    }
  in
  {
    Ir.name = "deadlock";
    collective = coll;
    proto = T.Protocol.Simple;
    gpus = [| gpu 0 1; gpu 1 0 |];
  }

let test_deadlock_detected () =
  match Executor.Symbolic.run_collective (deadlocked_ir ()) with
  | exception Executor.Exec_error msg ->
      Alcotest.(check bool) "mentions deadlock" true (contains msg "deadlock")
  | _ -> Alcotest.fail "deadlock not detected"

let test_static_deadlock_check_agrees () =
  match Verify.check_deadlock_free (deadlocked_ir ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "static check missed the deadlock"

let test_single_slot () =
  (* An 8-slot schedule of the fused ring legitimately deadlocks when the
     runtime only provides one slot (atomic rrs instructions hold their
     incoming slot while waiting for an outgoing one) — which is why the
     scheduler is slot-aware. The dynamic detector must catch it. *)
  let ir = A.Ring_allreduce.ir ~num_ranks:4 () in
  (match Executor.Symbolic.run_collective ~slots:1 ir with
  | exception Executor.Exec_error msg ->
      Alcotest.(check bool) "deadlock reported" true (contains msg "deadlock")
  | _ -> Alcotest.fail "1-slot run of an 8-slot fused ring should deadlock");
  (* Two slots suffice for the fused ring. *)
  ignore (Executor.Symbolic.run_collective ~slots:2 ir)

let uninit_ir () =
  let coll = Collective.make Collective.Allgather ~num_ranks:2 () in
  let gpus =
    [|
      {
        Ir.gpu_id = 0;
        input_chunks = 1;
        output_chunks = 2;
        scratch_chunks = 0;
        tbs =
          [|
            {
              Ir.tb_id = 0;
              send = -1;
              recv = -1;
              chan = 0;
              steps =
                [|
                  mk_step 0 Instr.Copy
                    ~src:(loc 0 Buffer_id.Output 1)
                    ~dst:(loc 0 Buffer_id.Output 0)
                    ();
                |];
            };
          |];
      };
      {
        Ir.gpu_id = 1;
        input_chunks = 1;
        output_chunks = 2;
        scratch_chunks = 0;
        tbs = [||];
      };
    |]
  in
  { Ir.name = "uninit"; collective = coll; proto = T.Protocol.Simple; gpus }

let test_uninit_read_detected () =
  match Executor.Symbolic.run_collective (uninit_ir ()) with
  | exception Executor.Exec_error msg ->
      Alcotest.(check bool) "mentions uninitialized" true
        (contains msg "uninitialized")
  | _ -> Alcotest.fail "uninitialized read not detected"

(* ------------------------------------------------------------------ *)
(* Exec_error texts, pinned in full                                    *)
(* ------------------------------------------------------------------ *)

let exec_error ir =
  match Executor.Symbolic.run_collective ir with
  | exception Executor.Exec_error msg -> msg
  | _ -> Alcotest.fail "expected Exec_error"

let pin name expected ir =
  Testutil.tc name (fun () ->
      Alcotest.(check string) "message" expected (exec_error (ir ())))

(* Rank 0 runs one thread block of [steps]; rank 1 (when present) runs
   none. *)
let one_tb_ir ?(send = -1) ?(ranks = 2) name steps =
  let coll = Collective.make Collective.Allgather ~num_ranks:ranks () in
  let gpu id tbs =
    { Ir.gpu_id = id; input_chunks = 1; output_chunks = ranks;
      scratch_chunks = 0; tbs }
  in
  {
    Ir.name;
    collective = coll;
    proto = T.Protocol.Simple;
    gpus =
      Array.init ranks (fun id ->
          gpu id
            (if id = 0 then
               [| { Ir.tb_id = 0; send; recv = -1; chan = 0;
                    steps = Array.of_list steps } |]
             else [||]));
  }

let read_past_end_ir () =
  one_tb_ir "read-past-end"
    [
      mk_step 0 Instr.Copy
        ~src:(Loc.make ~rank:0 ~buf:Buffer_id.Input ~index:0 ~count:3)
        ~dst:(loc 0 Buffer_id.Output 0)
        ();
    ]

let write_past_end_ir () =
  one_tb_ir "write-past-end"
    [
      mk_step 0 Instr.Copy
        ~src:(loc 0 Buffer_id.Input 0)
        ~dst:(Loc.make ~rank:0 ~buf:Buffer_id.Output ~index:1 ~count:2)
        ();
    ]

(* Rank 0 sends on two connections (twice to rank 1 on channel 0, once
   to rank 2 on channel 1) and nobody receives: the error names the
   first connection the FIFO table visits. *)
let leftover_ir () =
  let coll = Collective.make Collective.Allgather ~num_ranks:3 () in
  let send s = mk_step s Instr.Send ~src:(loc 0 Buffer_id.Input 0) () in
  let gpu id tbs =
    { Ir.gpu_id = id; input_chunks = 1; output_chunks = 3;
      scratch_chunks = 0; tbs }
  in
  {
    Ir.name = "leftover";
    collective = coll;
    proto = T.Protocol.Simple;
    gpus =
      [|
        gpu 0
          [|
            { Ir.tb_id = 0; send = 1; recv = -1; chan = 0;
              steps = [| send 0; send 1 |] };
            { Ir.tb_id = 1; send = 2; recv = -1; chan = 1;
              steps = [| send 0 |] };
          |];
        gpu 1 [||];
        gpu 2 [||];
      |];
  }

let exec_error_pins =
  [
    pin "deadlock"
      "deadlock: no thread block can make progress\n\
      \  gpu 0 tb 0 at step 0 (r): waiting for data from rank 1\n\
      \  gpu 1 tb 0 at step 0 (r): waiting for data from rank 0"
      deadlocked_ir;
    pin "uninitialized read"
      "rank 0 tb 0 step 0 (cpy): reading uninitialized chunk at rank 0 \
       output[1]"
      uninit_ir;
    pin "read past end"
      "rank 0 tb 0 step 0 (cpy): read past end of input buffer at \
       0:i[0..2]"
      read_past_end_ir;
    pin "write past end"
      "rank 0 tb 0 step 0 (cpy): write past end of output buffer at rank 0"
      write_past_end_ir;
    pin "messages left in flight"
      "2 message(s) left in flight on connection 0->1 ch0 (first sent by \
       rank 0 tb 0 step 0)"
      leftover_ir;
    pin "count mismatch"
      "rank 0 tb 0 step 2 (rrs): receives 2 chunk(s) but its matching \
       send, rank 3 tb 0 step 1 (rrs), sent 1"
      Testutil.count_mismatch_ir;
  ]

let test_scratch_visible () =
  (* Data staged through scratch is observable via the scratch accessor. *)
  let ir =
    Compile.ir ~verify:false
      (Collective.make Collective.Allgather ~num_ranks:2 ())
      (fun p ->
        let c = Program.chunk p ~rank:0 Buffer_id.Input ~index:0 () in
        let s = Program.copy c ~rank:1 Buffer_id.Scratch ~index:0 () in
        ignore (Program.copy s ~rank:1 Buffer_id.Output ~index:0 ());
        (* satisfy the rest of the postcondition trivially *)
        let c1 = Program.chunk p ~rank:1 Buffer_id.Input ~index:0 () in
        ignore (Program.copy c1 ~rank:1 Buffer_id.Output ~index:1 ());
        ignore
          (Program.copy
             (Program.chunk p ~rank:1 Buffer_id.Input ~index:0 ())
             ~rank:0 Buffer_id.Output ~index:1 ());
        ignore
          (Program.copy
             (Program.chunk p ~rank:0 Buffer_id.Input ~index:0 ())
             ~rank:0 Buffer_id.Output ~index:0 ()))
  in
  let st = Executor.Symbolic.run_collective ir in
  let scratch = Executor.Symbolic.scratch st ~rank:1 in
  Alcotest.(check bool) "scratch holds the staged chunk" true
    (match scratch.(0) with
    | Some c -> Chunk.equal c (Chunk.input ~rank:0 ~index:0)
    | None -> false);
  Alcotest.(check bool) "steps counted" true
    (Executor.Symbolic.steps_executed st > 0)

let () =
  Alcotest.run "executor"
    [
      ( "numeric",
        [
          numeric "ring allreduce" (A.Ring_allreduce.ir ~num_ranks:5 ());
          numeric "allpairs allreduce" (A.Allpairs_allreduce.ir ~num_ranks:4 ());
          numeric "hierarchical"
            (A.Hierarchical_allreduce.ir ~nodes:2 ~gpus_per_node:3 ());
          numeric "two-step alltoall"
            (A.Two_step_alltoall.ir ~nodes:2 ~gpus_per_node:3 ());
          numeric "alltonext" (A.Alltonext.ir ~nodes:3 ~gpus_per_node:2 ());
          numeric "allgather sccl" (A.Allgather_sccl.ir ());
          numeric "tree allreduce"
            (A.Tree_allreduce.ir ~num_ranks:6 ~chunk_factor:2 ());
          numeric "scatter-gather rings"
            (A.Reduce_scatter_ring.ir ~num_ranks:4 ~chunk_factor:2 ());
        ] );
      ( "machinery",
        [
          Testutil.tc "deadlock detected" test_deadlock_detected;
          Testutil.tc "static check agrees" test_static_deadlock_check_agrees;
          Testutil.tc "single slot" test_single_slot;
          Testutil.tc "uninit read detected" test_uninit_read_detected;
          Testutil.tc "scratch visible" test_scratch_visible;
        ] );
      ("exec errors", exec_error_pins);
    ]

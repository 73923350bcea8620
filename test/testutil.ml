(* Shared helpers for the test suites. *)

open Msccl_core

let check_verified name ir =
  match Verify.check ir with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: verification failed: %s" name msg

(* Numeric end-to-end check: run the IR on pseudo-random float data and
   compare every constrained output position with the collective's
   reference value. *)
let check_numeric ?(elems = 3) ?(seed = 11) name ir =
  let st = Executor.Data.run_random ~elems_per_chunk:elems ~seed ir in
  for rank = 0 to Ir.num_ranks ir - 1 do
    let out = Executor.Data.output st ~rank in
    Array.iteri
      (fun index v ->
        match
          Executor.Data.reference ~elems_per_chunk:elems ~seed ir ~rank ~index
        with
        | None -> ()
        | Some want -> (
            match v with
            | None ->
                Alcotest.failf "%s: rank %d out[%d] uninitialized" name rank
                  index
            | Some got ->
                Array.iteri
                  (fun e x ->
                    if abs_float (x -. want.(e)) > 1e-9 then
                      Alcotest.failf
                        "%s: rank %d out[%d][%d] = %f, expected %f" name rank
                        index e x want.(e))
                  got))
      out
  done

(* Structural IR equality (ignores the collective's closures). *)
let ir_equal (a : Ir.t) (b : Ir.t) =
  let step_eq (x : Ir.step) (y : Ir.step) =
    x.Ir.s = y.Ir.s && x.Ir.op = y.Ir.op && x.Ir.count = y.Ir.count
    && x.Ir.depends = y.Ir.depends
    && x.Ir.has_dep = y.Ir.has_dep
    && Option.equal Loc.equal x.Ir.src y.Ir.src
    && Option.equal Loc.equal x.Ir.dst y.Ir.dst
  in
  let tb_eq (x : Ir.tb) (y : Ir.tb) =
    x.Ir.tb_id = y.Ir.tb_id && x.Ir.send = y.Ir.send && x.Ir.recv = y.Ir.recv
    && x.Ir.chan = y.Ir.chan
    && Array.length x.Ir.steps = Array.length y.Ir.steps
    && Array.for_all2 step_eq x.Ir.steps y.Ir.steps
  in
  let gpu_eq (x : Ir.gpu) (y : Ir.gpu) =
    x.Ir.gpu_id = y.Ir.gpu_id
    && x.Ir.input_chunks = y.Ir.input_chunks
    && x.Ir.output_chunks = y.Ir.output_chunks
    && x.Ir.scratch_chunks = y.Ir.scratch_chunks
    && Array.length x.Ir.tbs = Array.length y.Ir.tbs
    && Array.for_all2 tb_eq x.Ir.tbs y.Ir.tbs
  in
  a.Ir.name = b.Ir.name && a.Ir.proto = b.Ir.proto
  && Ir.num_ranks a = Ir.num_ranks b
  && Array.for_all2 gpu_eq a.Ir.gpus b.Ir.gpus

(* Compare the full symbolic memory state of two executions. *)
let symbolic_states_equal ir1 ir2 =
  let st1 = Executor.Symbolic.run_collective ir1 in
  let st2 = Executor.Symbolic.run_collective ir2 in
  let buf_eq a b =
    Array.length a = Array.length b
    && Array.for_all2 (Option.equal Chunk.equal) a b
  in
  let ok = ref true in
  for rank = 0 to Ir.num_ranks ir1 - 1 do
    if
      not
        (buf_eq
           (Executor.Symbolic.output st1 ~rank)
           (Executor.Symbolic.output st2 ~rank)
        && buf_eq
             (Executor.Symbolic.input st1 ~rank)
             (Executor.Symbolic.input st2 ~rank))
    then ok := false
  done;
  !ok

let qtest ?(count = 100) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let tc name f = Alcotest.test_case name `Quick f

(* Prints a report and reads it back, as a consumer of the output would. *)
let reparse v =
  match Json.parse (Json.to_string v) with
  | Ok v -> v
  | Error m -> Alcotest.failf "invalid JSON: %s" m

(* Runs the built CLI with [args] from _build/default (tests run in
   _build/default/test) and returns its exit code, stdout and stderr.
   stderr goes through a file so a full pipe cannot stall the child. *)
let run_cli args =
  let cwd = Sys.getcwd () in
  let err_path = Filename.temp_file "msccl-stderr" ".txt" in
  Sys.chdir (Filename.dirname cwd);
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Sys.remove err_path)
    (fun () ->
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let err =
        Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0
      in
      let pid =
        Unix.create_process "bin/msccl_cli.exe"
          (Array.of_list ("msccl" :: args))
          Unix.stdin out_w err
      in
      Unix.close out_w;
      Unix.close err;
      let ic = Unix.in_channel_of_descr out_r in
      let out = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED code ->
          (code, out, In_channel.with_open_bin err_path In_channel.input_all)
      | _ -> Alcotest.failf "msccl %s: killed" (String.concat " " args))

(* Child processes of the msccl CLI, timed with their resource usage. *)

external wait4 : int -> int * float * float * int = "perfbench_wait4"

external now : unit -> float = "perfbench_now"
(** Monotonic clock, in seconds. *)

type child = {
  code : int;  (** Exit status, or minus the killing signal. *)
  wall : float;  (** Spawn to reap, seconds. *)
  maxrss_mb : float;  (** Peak resident set size of the child. *)
  out : string;
  err : string;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every child runs with one worker domain, so no child competes with
   itself for the box's CPUs. *)
let env =
  Array.append
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"MSCCL_JOBS=" kv))
          (Array.to_list (Unix.environment ()))))
    [| "MSCCL_JOBS=1" |]

(** Runs [exe args] with [dir] as its working directory, so every file it
    writes (including the [BENCH_*.json] some selectors drop in the cwd)
    lands there; stdout and stderr are captured through files in [dir].
    Blocks until the child has ended. *)
let run ~exe ~dir args =
  let path name = Filename.concat dir name in
  let open_w p = Unix.openfile p [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let fo = open_w (path "child.out") and fe = open_w (path "child.err") in
  let fi = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let t0 = now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () -> Unix.create_process_env exe (Array.of_list (exe :: args)) env fi fo fe)
  in
  let code, _user, _sys, maxrss_kb = wait4 pid in
  let wall = now () -. t0 in
  List.iter Unix.close [ fo; fe; fi ];
  {
    code;
    wall;
    maxrss_mb = float_of_int maxrss_kb /. 1024.;
    out = read_file (path "child.out");
    err = read_file (path "child.err");
  }

(** Children's user+sys CPU seconds so far, as [Unix.times] reports them
    for reaped children. *)
let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let rec mkdir_p p =
  if not (Sys.file_exists p) then begin
    mkdir_p (Filename.dirname p);
    Sys.mkdir p 0o755
  end

(* perfbench — the repository's benchmark.

   Drives the real msccl binary, one child at a time, on three named
   workloads (see Workload), checks every output against goldens.txt, and
   prints the end-to-end metrics; with --trace 1 it instead runs the same
   operations once through the CLI and once traced in-process (Traced) and
   prints per-layer metrics.

     sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
     sh perfbench/run.sh --self-test        perturbed golden => fail_ratio > 0
     sh perfbench/run.sh --write-goldens    re-record goldens.txt

   Run from the repository root. Scratch files go to .perfbench/run-PID-*
   (removed on exit); traces to .perfbench/traces/.

   End-to-end metrics of a --trace 0 run, which repeats the operation
   sequence for --seconds; each time is a sum over the sequence's
   operations of that operation's median across the repeats:
     wall_s       wall time of the sequence's CLI calls
     cpu_s        user+sys CPU of those children (Unix.times)
     peak_rss_mb  largest peak RSS of any child (wait4 rusage)
     setup_s      start to first timed call: seed draw, temp dir and one
                  untimed warm-up call; repeated, median reported
   The human-readable lines before the JSON add the same sums over the
   compile, verify (verify, verify --static), analyze (lint, analyze) and
   simulate calls where the workload has them, sim_time_us (geometric mean
   of every simulated time; pinned by the goldens) and fail_ratio. Those
   stay out of the JSON: not every workload has each kind of call, a single
   1 MB simulate of ring256-file is too short to be steady on a shared box,
   sim_time_us is deterministic and fail_ratio is [failed]/[attempted]. *)

module W = Workload

let exe () = Filename.concat (Sys.getcwd ()) "_build/default/bin/msccl_cli.exe"

let scratch = ".perfbench"

let median l =
  match List.sort compare l with
  | [] -> 0.
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

(* One CLI call of a sequence. *)
type call = {
  op : W.op;
  wall : float;
  cpu : float;  (** user+sys of the child, from [Unix.times] *)
  rss : float;
  sim_us : float list;  (** the simulated times it printed *)
}

(** Runs [ops] through the CLI in [dir], checking each output. *)
let run_sequence ~exe ~dir ~goldens ~tally ops =
  let check = Goldens.check tally in
  let digests = Hashtbl.create 4 in
  let calls =
    List.map
      (fun (op : W.op) ->
        let cpu0 = Proc.children_cpu () in
        let c = Proc.run ~exe ~dir (W.argv op) in
        let cpu = Proc.children_cpu () -. cpu0 in
        let id = W.id op.cfg in
        let what = String.concat " " (W.argv op) in
        Printf.eprintf "perfbench: %.6f s wall, %.6f s cpu, %.1f MB: %s\n%!" c.Proc.wall cpu
          c.Proc.maxrss_mb what;
        check
          (Printf.sprintf "%s exited %d: %s" what c.Proc.code
             (String.trim c.Proc.err))
          (c.Proc.code = 0);
        check (what ^ ": expected verdict") (Goldens.verdict_ok op.kind c.Proc.out);
        let sims = Goldens.sim_lines c.Proc.out in
        (match op.kind with
        | Compile | Compile_sym ->
            let file =
              if op.kind = Compile then W.xml_file op.cfg else W.sym_file op.cfg
            in
            let d =
              try Goldens.digest (Proc.read_file (Filename.concat dir file))
              with Sys_error _ -> "(missing)"
            in
            Hashtbl.replace digests (id, op.kind = Compile) d;
            if op.kind = Compile then
              check (id ^ ": XML digest equals the golden")
                (Hashtbl.find_opt goldens.Goldens.xml id = Some d)
        | Simulate_file _ | Simulate_algo ->
            Goldens.check_sim goldens tally id ~sizes:(W.sizes op.kind) sims
        | Verify | Verify_static | Lint | Analyze -> ());
        {
          op;
          wall = c.Proc.wall;
          cpu;
          rss = c.Proc.maxrss_mb;
          sim_us = List.filter_map (fun (_, us) -> float_of_string_opt us) sims;
        })
      ops
  in
  Hashtbl.iter
    (fun (id, classic) d ->
      if not classic then
        check
          (id ^ ": --sym-compile XML equals the classic one but for its name")
          (Hashtbl.find_opt digests (id, true) = Some d))
    digests;
  calls

(* Sum over the distinct operations of [calls] passing [keep] of the
   median of [f] across the sequences that ran the operation: one slow
   call on the noisy box moves its own median, not the whole sum. *)
let sum_of_medians ?(keep = fun _ -> true) f calls =
  let key (c : call) = (c.op.kind, W.id c.op.cfg) in
  let keys = List.sort_uniq compare (List.map key (List.filter keep calls)) in
  List.fold_left
    (fun a k -> a +. median (List.map f (List.filter (fun c -> key c = k) calls)))
    0. keys

let print_result ~tally metrics =
  let num v = Printf.sprintf "%.17g" v in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.Goldens.failed = 0) tally.Goldens.attempted tally.Goldens.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (num v) unit_)
          metrics))

let setups = 5

let run_workload (w : W.t) ~seed ~seconds ~trace =
  let exe = exe () in
  if not (Sys.file_exists exe) then failwith ("no msccl binary at " ^ exe);
  let goldens = Goldens.load () in
  let tally = Goldens.tally () in
  let cfgs, dropped =
    List.partition (fun c -> not (Hashtbl.mem goldens.Goldens.drops (W.id c))) w.candidates
  in
  List.iter
    (fun c ->
      Printf.printf "dropped from %s: %s (%s)\n" w.name (W.id c)
        (Hashtbl.find goldens.Goldens.drops (W.id c)))
    dropped;
  (* Set-up: seed draw, fresh temp dir, one untimed warm-up call. *)
  let dirs = ref [] in
  let setup i =
    let t0 = Proc.now () in
    let rng = Random.State.make [| seed |] in
    let first = W.pass w rng cfgs in
    let dir = Printf.sprintf "%s/run-%d-%d" scratch (Unix.getpid ()) i in
    Proc.rm_rf dir;
    Proc.mkdir_p dir;
    dirs := dir :: !dirs;
    let warm = Proc.run ~exe ~dir [ "list" ] in
    Goldens.check tally "warm-up call exits 0" (warm.Proc.code = 0);
    (Proc.now () -. t0, warm.Proc.wall, rng, first, dir)
  in
  let runs = List.init setups setup in
  let setup_s = median (List.map (fun (s, _, _, _, _) -> s) runs) in
  let startup_s = median (List.map (fun (_, w, _, _, _) -> w) runs) in
  let _, _, rng, first, dir = List.nth runs (setups - 1) in
  Fun.protect
    ~finally:(fun () -> List.iter Proc.rm_rf !dirs)
    (fun () ->
      let sequence ops = run_sequence ~exe ~dir ~goldens ~tally ops in
      if not trace then begin
        (* At least two sequences, so every operation has a median of more
           than one call; more while another fits in --seconds. *)
        let t_start = Proc.now () in
        let rec loop acc ops =
          let t = Proc.now () in
          let acc = sequence ops :: acc in
          let took = Proc.now () -. t in
          if List.length acc < 2 || Proc.now () -. t_start +. took <= seconds then
            loop acc (W.pass w rng cfgs)
          else acc
        in
        let seqs = loop [] first in
        let calls = List.concat seqs in
        let in_group g (c : call) = W.group c.op.kind = g in
        let group g = sum_of_medians ~keep:(in_group g) (fun c -> c.wall) calls in
        let has g = List.exists (in_group g) calls in
        let all_us = List.concat_map (fun c -> c.sim_us) calls in
        let geomean =
          exp (List.fold_left (fun a x -> a +. log x) 0. all_us /. float_of_int (List.length all_us))
        in
        let fail_ratio = float_of_int tally.failed /. float_of_int tally.attempted in
        let metrics =
          [
            ("wall_s", sum_of_medians (fun c -> c.wall) calls, "s");
            ("cpu_s", sum_of_medians (fun c -> c.cpu) calls, "s");
            ("setup_s", setup_s, "s");
            ("peak_rss_mb", List.fold_left (fun a c -> Float.max a c.rss) 0. calls, "MB");
          ]
        in
        let extra =
          List.filter_map
            (fun (name, g) -> if has g then Some (name, group g, "s") else None)
            [
              ("compile_s", W.G_compile);
              ("verify_s", G_verify);
              ("analyze_s", G_analyze);
              ("simulate_s", G_simulate);
            ]
          @ [ ("sim_time_us", geomean, "us"); ("fail_ratio", fail_ratio, "ratio") ]
        in
        Printf.printf "workload %s, seed %d: %d sequence(s) of %d CLI call(s)\n" w.name seed
          (List.length seqs) (List.length first);
        List.iter
          (fun (name, v, unit_) -> Printf.printf "  %-12s %14.6f %s\n" name v unit_)
          (metrics @ extra);
        print_result ~tally metrics
      end
      else begin
        let calls = sequence first in
        let cli_wall = List.fold_left (fun a c -> a +. c.wall) 0. calls in
        Traced.run { Traced.dir; goldens; tally } first;
        Proc.mkdir_p (Filename.concat scratch "traces");
        let prefix = Printf.sprintf "%s/traces/%s-seed%d" scratch w.name seed in
        Traced.write ~prefix ~cli_wall;
        let metrics =
          Traced.metrics ~cli_wall ~cli_calls:(List.length calls) ~cli_startup:startup_s
        in
        Printf.printf "workload %s, seed %d: traced run; spans in %s.trace.json\n" w.name
          seed prefix;
        List.iter
          (fun l ->
            Printf.printf "  %-22s %-44s moves %s\n" l.Traced.l_span l.Traced.l_call
              l.Traced.l_moves)
          Traced.layers;
        List.iter
          (fun (name, v, unit_) -> Printf.printf "  %-30s %16.6f %s\n" name v unit_)
          metrics;
        print_result ~tally metrics
      end)

(* Runs every candidate once in canonical order and records its outputs;
   a configuration the CLI rejects is recorded as dropped, with the CLI's
   first error line as the reason. A wrong verdict is a bug, not a drop. *)
let write_goldens () =
  let exe = exe () in
  let g = Goldens.create () in
  let dir = Printf.sprintf "%s/run-%d-goldens" scratch (Unix.getpid ()) in
  Proc.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> Proc.rm_rf dir)
    (fun () ->
      List.iter
        (fun (w : W.t) ->
          List.iter
            (fun c ->
              let id = W.id c in
              let rec go = function
                | [] -> ()
                | kind :: rest ->
                    let op = { W.kind; cfg = c } in
                    let r = Proc.run ~exe ~dir (W.argv op) in
                    Printf.eprintf "%s %s: exit %d, %.2f s\n%!" w.name
                      (String.concat " " (W.argv op)) r.Proc.code r.Proc.wall;
                    if r.Proc.code <> 0 then begin
                      let why =
                        match List.filter (( <> ) "") (String.split_on_char '\n' r.Proc.err) with
                        | l :: _ -> l
                        | [] -> Printf.sprintf "exit %d" r.Proc.code
                      in
                      Hashtbl.replace g.Goldens.drops id why;
                      Hashtbl.remove g.Goldens.xml id;
                      List.iter
                        (fun b -> Hashtbl.remove g.Goldens.sim (id, Msccl_harness.Sweep.pretty b))
                        (W.sizes kind)
                    end
                    else if not (Goldens.verdict_ok kind r.Proc.out) then
                      failwith (id ^ ": wrong verdict from " ^ W.kind_name kind)
                    else begin
                      (match kind with
                      | Compile ->
                          Hashtbl.replace g.Goldens.xml id
                            (Goldens.digest (Proc.read_file (Filename.concat dir (W.xml_file c))))
                      | Simulate_file _ | Simulate_algo ->
                          List.iter
                            (fun (size, us) -> Hashtbl.replace g.Goldens.sim (id, size) us)
                            (Goldens.sim_lines r.Proc.out)
                      | _ -> ());
                      go rest
                    end
              in
              (* Every configuration gets an XML golden: the traced run's
                 probes compile even those whose workload does not. *)
              go (if List.mem W.Compile (w.ops c) then w.ops c else Compile :: w.ops c))
            w.candidates)
        W.all);
  Goldens.save g

(* The output checks must catch a wrong simulated time: one golden is
   perturbed and the same checked sequence must then fail. *)
let self_test () =
  let exe = exe () in
  let goldens = Goldens.load () in
  let c = W.cfg "sccl-allgather" "dgx1" ~proto:"Simple" in
  let ops = [ { W.kind = Simulate_algo; cfg = c } ] in
  let dir = Printf.sprintf "%s/run-%d-selftest" scratch (Unix.getpid ()) in
  Proc.mkdir_p dir;
  Fun.protect
    ~finally:(fun () -> Proc.rm_rf dir)
    (fun () ->
      let ratio goldens =
        let tally = Goldens.tally () in
        ignore (run_sequence ~exe ~dir ~goldens ~tally ops);
        float_of_int tally.failed /. float_of_int tally.attempted
      in
      let clean = ratio goldens in
      let key = (W.id c, "1MB") in
      let perturbed = { goldens with Goldens.sim = Hashtbl.copy goldens.Goldens.sim } in
      let us = float_of_string (Hashtbl.find goldens.Goldens.sim key) in
      Hashtbl.replace perturbed.Goldens.sim key (Printf.sprintf "%.1f" (us +. 0.1));
      let bad = ratio perturbed in
      Printf.printf "self-test: fail_ratio %.4f with the goldens, %.4f with %s @ %s perturbed\n"
        clean bad (fst key) (snd key);
      if clean = 0. && bad > 0. then 0 else 1)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 20. and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ring256-file | alltoall-sweep | paper-sweep");
      ("--seed", Arg.Set_int seed, "N seed of the configuration draw");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat sequences");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--write-goldens", Arg.Unit (fun () -> mode := `Goldens), " re-record goldens.txt");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " check that a perturbed golden fails");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: the msccl CLI benchmark";
  match !mode with
  | `Goldens -> write_goldens ()
  | `Self_test -> exit (self_test ())
  | `Run -> (
      match W.find !workload with
      | None ->
          prerr_endline ("perfbench: unknown workload " ^ !workload);
          exit 2
      | Some w -> run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1))

(* The benchmark's workloads: which CLI operations run on which
   configurations, and in what seeded order. *)

module H = Msccl_harness
module T = Msccl_topology

(** One algorithm configuration, as the CLI's flags name it. *)
type cfg = {
  algo : string;
  topo : string;  (** [-t], e.g. ["ndv4:32"]; [compile] gets [-n]/[-g] from it. *)
  proto : string option;  (** [-p] *)
  r : int option;  (** [-r] *)
  ch : int option;  (** [-c] *)
}

let cfg ?proto ?r ?ch algo topo = { algo; topo; proto; r; ch }

let opt flag f = function Some v -> [ flag; f v ] | None -> []

let flags c =
  opt "-p" Fun.id c.proto @ opt "-r" string_of_int c.r
  @ opt "-c" string_of_int c.ch

(** Key of the configuration in the goldens. *)
let id c = String.concat " " ((c.algo :: "-t" :: [ c.topo ]) @ flags c)

let topology c =
  match H.Registry.parse_topology c.topo with
  | Ok t -> t
  | Error m -> invalid_arg m

(* A file name derived from the id, unique per configuration. *)
let slug c =
  String.map
    (fun ch ->
      match ch with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> ch
      | _ -> '_')
    (id c)

type kind =
  | Compile  (** [compile -o FILE], verifying (the default). *)
  | Compile_sym  (** [compile --sym-compile -o FILE.sym.xml] *)
  | Verify  (** [verify FILE] *)
  | Verify_static  (** [verify --static FILE] *)
  | Lint  (** [lint FILE] *)
  | Analyze  (** [analyze FILE -t TOPO] at the default 1 MB *)
  | Simulate_file of { sweep : bool }  (** [simulate -f FILE -t TOPO] *)
  | Simulate_algo  (** [simulate ALGO -t TOPO ... --sweep], no XML *)

type op = { kind : kind; cfg : cfg }

type group = G_compile | G_verify | G_analyze | G_simulate

let group = function
  | Compile | Compile_sym -> G_compile
  | Verify | Verify_static -> G_verify
  | Lint | Analyze -> G_analyze
  | Simulate_file _ | Simulate_algo -> G_simulate

let kind_name = function
  | Compile -> "compile"
  | Compile_sym -> "compile-sym"
  | Verify -> "verify"
  | Verify_static -> "verify-static"
  | Lint -> "lint"
  | Analyze -> "analyze"
  | Simulate_file _ -> "simulate-file"
  | Simulate_algo -> "simulate-algo"

let xml_file c = slug c ^ ".xml"

let sym_file c = slug c ^ ".sym.xml"

(** The CLI arguments of [op], with files relative to the child's cwd. *)
let argv op =
  let c = op.cfg in
  let compile extra out =
    let t = topology c in
    [
      "compile"; c.algo; "-n";
      string_of_int (T.Topology.num_nodes t);
      "-g";
      string_of_int (T.Topology.gpus_per_node t);
    ]
    @ flags c @ extra @ [ "-o"; out ]
  in
  match op.kind with
  | Compile -> compile [] (xml_file c)
  | Compile_sym -> compile [ "--sym-compile" ] (sym_file c)
  | Verify -> [ "verify"; xml_file c ]
  | Verify_static -> [ "verify"; "--static"; xml_file c ]
  | Lint -> [ "lint"; xml_file c ]
  | Analyze -> [ "analyze"; xml_file c; "-t"; c.topo ]
  | Simulate_file { sweep } ->
      [ "simulate"; "-f"; xml_file c; "-t"; c.topo ]
      @ if sweep then [ "--sweep" ] else []
  | Simulate_algo ->
      ("simulate" :: c.algo :: "-t" :: [ c.topo ]) @ flags c @ [ "--sweep" ]

(** Buffer sizes [simulate] prints for [op]: the CLI's sweep, or its
    default 1 MB. *)
let sizes = function
  | Simulate_file { sweep = false } -> [ 1024. *. 1024. ]
  | Simulate_file { sweep = true } | Simulate_algo ->
      H.Sweep.sizes ~from:1024. ~upto:(H.Sweep.gib 1.)
  | _ -> []

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type t = {
  name : string;
  candidates : cfg list;
      (** Every configuration considered. Those the goldens record as
          dropped (with the CLI's reason) never run. *)
  ops : cfg -> kind list;  (** The operations on one configuration, in order. *)
  draw : Random.State.t -> cfg list -> cfg list;
      (** The seeded part: which configurations a pass runs, in which
          order. *)
  permute : Random.State.t -> kind list -> kind list;
      (** Seeded order of one configuration's operations, respecting
          their file dependencies. *)
}

let no_permute _ ks = ks

(* ring-allreduce at 256 ranks, every command that reads or writes its
   15.6 MB XML file. Both compiles come first (in either order), then the
   five readers of the classic file in a seeded order. *)
let ring256_file =
  {
    name = "ring256-file";
    candidates = [ cfg "ring-allreduce" "ndv4:32" ];
    ops =
      (fun _ ->
        [
          Compile; Compile_sym; Verify; Verify_static; Lint; Analyze;
          Simulate_file { sweep = false };
        ]);
    draw = (fun _ cs -> cs);
    permute =
      (fun rng ks ->
        let writers, readers =
          List.partition (fun k -> group k = G_compile) ks
        in
        shuffle rng writers @ shuffle rng readers);
  }

(* AllToAll traffic of Fig. 8e/f on contended NICs. naive-alltoall at 128
   ranks is a candidate only to record why it cannot run: every rank
   needs 127 thread blocks and an A100 has 108 SMs. *)
let alltoall_sweep =
  {
    name = "alltoall-sweep";
    candidates =
      [
        cfg "two-step-alltoall" "ndv4:16";
        cfg "naive-alltoall" "ndv4:8";
        cfg "naive-alltoall" "ndv4:16";
      ];
    ops = (fun _ -> [ Compile; Simulate_file { sweep = true } ]);
    draw = shuffle;
    permute = no_permute;
  }

(* The configurations of Fig. 8a-d, f-h and Fig. 11 at 8-64 ranks, plus
   NCCL's tree algorithms, across all four protocols. A pass runs the
   whole pool in a seeded order, so every run does the same work. *)
let paper_sweep =
  let s = cfg in
  {
    name = "paper-sweep";
    candidates =
      [
        s "allpairs-allreduce" "ndv4:1" ~proto:"LL" ~r:2;
        s "allpairs-allreduce" "ndv4:1" ~proto:"LL" ~r:4;
        s "ring-allreduce" "ndv4:1" ~proto:"LL" ~r:8;
        s "ring-allreduce" "ndv4:1" ~proto:"LL128" ~r:8;
        s "ring-allreduce" "ndv4:1" ~proto:"LL" ~r:8 ~ch:4;
        s "allpairs-allreduce" "dgx2:1" ~proto:"LL" ~r:2;
        s "allpairs-allreduce" "dgx2:1" ~proto:"LL" ~r:4;
        s "ring-allreduce" "dgx2:1" ~proto:"LL" ~r:8;
        s "ring-allreduce" "dgx2:1" ~proto:"LL128" ~r:4;
        s "hierarchical-allreduce" "ndv4:2" ~proto:"LL" ~r:1;
        s "hierarchical-allreduce" "ndv4:2" ~proto:"LL128" ~r:2;
        s "hierarchical-allreduce" "ndv4:2" ~proto:"Simple" ~r:8;
        s "hierarchical-allreduce" "dgx2:2" ~proto:"LL" ~r:1;
        s "hierarchical-allreduce" "dgx2:2" ~proto:"LL128" ~r:2;
        s "hierarchical-allreduce" "dgx2:2" ~proto:"Simple" ~r:8;
        s "two-step-alltoall" "dgx2:4" ~proto:"LL128";
        s "two-step-alltoall" "dgx2:4" ~proto:"Simple";
        s "alltonext" "ndv4:3" ~r:4;
        s "alltonext" "ndv4:3" ~r:8;
        s "alltonext" "ndv4:3" ~r:16;
        s "alltonext" "dgx2:4" ~r:2;
        s "alltonext" "dgx2:4" ~r:4;
        s "alltonext" "dgx2:4" ~r:8;
        s "sccl-allgather" "dgx1" ~proto:"Simple";
        s "sccl-allgather" "dgx1" ~proto:"LL";
        s "sccl-allgather" "dgx1" ~proto:"SCCL";
        s "tree-allreduce" "ndv4:1" ~proto:"Simple";
        s "tree-allreduce" "ndv4:2" ~proto:"LL";
        s "double-binary-tree" "ndv4:2" ~proto:"LL128";
        s "double-binary-tree" "dgx2:2" ~proto:"Simple";
      ];
    ops = (fun _ -> [ Simulate_algo ]);
    draw = shuffle;
    permute = no_permute;
  }

let all = [ ring256_file; alltoall_sweep; paper_sweep ]

let find name = List.find_opt (fun w -> w.name = name) all

(** One pass of [w] over [cfgs]: the operations in their seeded order. *)
let pass w rng cfgs =
  List.concat_map
    (fun c -> List.map (fun kind -> { kind; cfg = c }) (w.permute rng (w.ops c)))
    (w.draw rng cfgs)

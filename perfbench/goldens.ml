(* Expected outputs of every configuration, recorded at the commit that
   defined the benchmark (perfbench/goldens.txt), and the output checks
   that compare against them. *)

type t = {
  drops : (string, string) Hashtbl.t;  (** id -> why the CLI cannot run it *)
  xml : (string, string) Hashtbl.t;  (** id -> digest of its XML, name removed *)
  sim : (string * string, string) Hashtbl.t;
      (** (id, size) -> simulated time in us, as [simulate] prints it *)
}

let file = "perfbench/goldens.txt"

let create () =
  { drops = Hashtbl.create 8; xml = Hashtbl.create 8; sim = Hashtbl.create 256 }

let load () =
  let g = create () in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ "drop"; id; why ] -> Hashtbl.replace g.drops id why
      | [ "xml"; id; d ] -> Hashtbl.replace g.xml id d
      | [ "sim"; id; size; us ] -> Hashtbl.replace g.sim (id, size) us
      | [ "" ] -> ()
      | l :: _ when String.starts_with ~prefix:"#" l -> ()
      | _ -> failwith (Printf.sprintf "%s: bad line %S" file line))
    (String.split_on_char '\n' (Proc.read_file file));
  g

let save g =
  let lines tbl f = List.sort compare (Hashtbl.fold (fun k v acc -> f k v :: acc) tbl []) in
  let body =
    lines g.drops (fun id why -> Printf.sprintf "drop\t%s\t%s" id why)
    @ lines g.xml (fun id d -> Printf.sprintf "xml\t%s\t%s" id d)
    @ lines g.sim (fun (id, size) us -> Printf.sprintf "sim\t%s\t%s\t%s" id size us)
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc
        "# Expected CLI outputs, written by: sh perfbench/run.sh --write-goldens\n\
         # drop ID REASON | xml ID MD5-WITHOUT-NAME | sim ID SIZE TIME_US\n";
      List.iter (fun l -> output_string oc (l ^ "\n")) body)

let find_from s sub i =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go i

(** The XML with the [name] attribute of its [<algo>] element removed: the
    classic and the symmetry-aware compile differ only there. *)
let without_name xml =
  match find_from xml "<algo " 0 with
  | None -> xml
  | Some a -> (
      match find_from xml " name=\"" a with
      | None -> xml
      | Some i -> (
          match String.index_from_opt xml (i + 7) '"' with
          | None -> xml
          | Some j -> String.sub xml 0 i ^ String.sub xml (j + 1) (String.length xml - j - 1)))

let digest xml = Digest.to_hex (Digest.string (without_name xml))

(** [(size, time_us)] of each result line [simulate] printed. *)
let sim_lines out =
  List.filter_map
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | size :: us :: "us" :: _ -> Some (size, us)
      | _ -> None)
    (String.split_on_char '\n' out)

let has_line ~prefix out =
  List.exists
    (fun l -> String.starts_with ~prefix (String.trim l))
    (String.split_on_char '\n' out)

let contains out sub = find_from out sub 0 <> None

(** The verdict each reading command must print at the defining commit. *)
let verdict_ok (kind : Workload.kind) out =
  match kind with
  | Verify -> contains out ": OK (postcondition, deadlock-freedom, structure)"
  | Verify_static -> contains out ": OK (static provenance"
  | Lint -> has_line ~prefix:"0 error(s)" out
  | Analyze -> has_line ~prefix:"provenance: clean" out
  | Compile | Compile_sym | Simulate_file _ | Simulate_algo -> true

(** Counts checks made and checks failed; a failure is reported on
    stderr. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(** Checks the simulated time of every size [simulate] should have
    printed against the golden table. *)
let check_sim g t id ~sizes results =
  List.iter
    (fun bytes ->
      let size = Msccl_harness.Sweep.pretty bytes in
      let got = List.assoc_opt size results in
      let want = Hashtbl.find_opt g.sim (id, size) in
      let show = Option.value ~default:"(none)" in
      check t
        (Printf.sprintf "%s @ %s: simulated %s us, golden %s" id size
           (show got) (show want))
        (got <> None && got = want))
    sizes

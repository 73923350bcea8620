(* The CLI's parameter validation and the symmetry-aware compile's output,
   checked on the built msccl binary.

   Bad build parameters (--instances 0, --channels 0) must come back as a
   one-line message and the command's bad-parameter exit code (1 for
   compile and simulate, 2 for lint and analyze), never as an uncaught
   exception. And `compile --sym-compile` must write the same file as
   the classic `compile`, byte for byte, for every hinted algorithm. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Bad parameters                                                      *)
(* ------------------------------------------------------------------ *)

let commands =
  [
    ("compile", [ "compile"; "ring-allreduce"; "-o"; "/dev/null" ], 1);
    ( "compile --sym-compile",
      [ "compile"; "ring-allreduce"; "--sym-compile"; "-o"; "/dev/null" ],
      1 );
    ("simulate", [ "simulate"; "ring-allreduce" ], 1);
    ("lint --algo", [ "lint"; "--algo"; "ring-allreduce" ], 2);
    ("analyze --algo", [ "analyze"; "--algo"; "ring-allreduce" ], 2);
  ]

let bad_params =
  [
    ("--instances 0", [ "--instances"; "0" ], "instances must be >= 1");
    ("--channels 0", [ "--channels"; "0" ], "Ring_allreduce: channels < 1");
  ]

let test_bad_param (args, code, flag, message) () =
  let got, _, err = Testutil.run_cli (args @ flag) in
  Alcotest.(check int) "exit code" code got;
  Alcotest.(check bool)
    "no internal error" false
    (contains ~sub:"internal error" err);
  if not (contains ~sub:message err) then
    Alcotest.failf "stderr lacks %S:\n%s" message err

(* ------------------------------------------------------------------ *)
(* Symmetry-aware compile writes the classic file                      *)
(* ------------------------------------------------------------------ *)

let hinted =
  [
    "ring-allreduce"; "allpairs-allreduce"; "ring-allgather";
    "ring-reducescatter";
  ]

let test_sym_compile_identical algo () =
  let tmp suffix = Filename.temp_file ("msccl-" ^ algo) suffix in
  let classic = tmp ".xml" and sym = tmp ".sym.xml" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ classic; sym ])
    (fun () ->
      let compile extra out =
        let code, _, err =
          Testutil.run_cli ([ "compile"; algo; "-n"; "2"; "-o"; out ] @ extra)
        in
        if code <> 0 then
          Alcotest.failf "compile %s exited %d:\n%s" algo code err
      in
      compile [] classic;
      compile [ "--sym-compile" ] sym;
      Alcotest.(check bool)
        (algo ^ ": --sym-compile XML = classic XML")
        true
        (String.equal (read_file classic) (read_file sym)))

let () =
  Alcotest.run "cli"
    [
      ( "bad parameters",
        List.concat_map
          (fun (cmd, args, code) ->
            List.map
              (fun (what, flag, message) ->
                Testutil.tc (cmd ^ " " ^ what)
                  (test_bad_param (args, code, flag, message)))
              bad_params)
          commands );
      ( "sym-compile",
        List.map
          (fun algo -> Testutil.tc algo (test_sym_compile_identical algo))
          hinted );
    ]

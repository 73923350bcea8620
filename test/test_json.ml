(* The one JSON printer and reader, and every machine-readable output of
   the CLI pinned against goldens in corpus/json-pins/.

   The goldens were recorded before the emitters moved onto Json, so a
   pin compares structurally rather than byte for byte: the same shape
   and key order; equal strings, bools and nulls; and each number within
   half a unit of the golden's last printed digit. The text outputs of
   the three registry sweeps stay byte-identical. *)

open Msccl_core

(* ------------------------------------------------------------------ *)
(* Printer and reader                                                  *)
(* ------------------------------------------------------------------ *)

let test_escaping () =
  Alcotest.(check string)
    "named, \\u00XX and U+FFFD escapes"
    {|"q\"b\\n\nr\rt\t\u0001\u001f\ufffdx"|}
    (Json.to_string (Json.String "q\"b\\n\nr\rt\t\x01\x1f\xffx"));
  Alcotest.(check string) "valid UTF-8 passes through" {|"é→"|}
    (Json.to_string (Json.String "é→"))

let test_floats () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string) want want (Json.to_string (Json.Float f)))
    [
      (1024., "1024.0");
      (0.1, "0.1");
      (2.4e-05, "2.4e-05");
      (1. /. 3., "0.33333333333333331");
      (-0.5, "-0.5");
      (nan, "null");
      (infinity, "null");
      (neg_infinity, "null");
    ]

let test_layout () =
  Alcotest.(check string) "compact, keys in order"
    {|{"z":[1,true,null],"a":{},"m":[]}|}
    (Json.to_string
       (Json.Obj
          [
            ("z", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
            ("a", Json.Obj []);
            ("m", Json.List []);
          ]))

let test_parse () =
  let ok s v =
    match Json.parse s with
    | Ok got when got = v -> ()
    | Ok got -> Alcotest.failf "%S parsed as %s" s (Json.to_string got)
    | Error m -> Alcotest.failf "%S rejected: %s" s m
  in
  ok " {\"a\" : [1, -2.5e3, \"\\u00e9\\ud83d\\ude00\\/\"] } "
    (Json.Obj
       [
         ( "a",
           Json.List
             [ Json.Int 1; Json.Float (-2500.); Json.String "é😀/" ] );
       ]);
  ok "1e2" (Json.Float 100.);
  ok "99999999999999999999" (Json.Float 1e20);
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok v -> Alcotest.failf "%S accepted as %s" s (Json.to_string v)
      | Error _ -> ())
    [
      ""; "01"; "1."; ".5"; "-"; "1e"; "[1,]"; "{\"a\":1,}"; "{a:1}"; "nul";
      "1 2"; "\"a\x01\""; "\"\xff\""; "\"\\ud800\""; "\"\\x\""; "[";
      "\"abc";
    ]

let test_member () =
  let v = Json.Obj [ ("a", Json.Int 1); ("a", Json.Int 2) ] in
  Alcotest.(check bool) "first binding" true (Json.member "a" v = Json.Int 1);
  Alcotest.(check bool) "absent" true (Json.member "b" v = Json.Null);
  Alcotest.(check bool) "not an object" true
    (Json.member "a" (Json.List []) = Json.Null)

(* What [parse (to_string v)] must give back: the printer repairs
   invalid UTF-8 (each maximal invalid subsequence becomes U+FFFD) and
   prints non-finite floats as null; everything else round-trips. *)
let repair s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then begin
      let d = String.get_utf_8_uchar s i in
      Buffer.add_utf_8_uchar b (Uchar.utf_decode_uchar d);
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.contents b

let rec expected = function
  | Json.String s -> Json.String (repair s)
  | Json.Float f when not (Float.is_finite f) -> Json.Null
  | Json.List xs -> Json.List (List.map expected xs)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (repair k, expected v)) kvs)
  | v -> v

let gen_value =
  let open QCheck.Gen in
  let str =
    oneof
      [
        string_size ~gen:char (int_bound 12);
        map
          (fun us ->
            let b = Buffer.create 16 in
            List.iter (Buffer.add_utf_8_uchar b) us;
            Buffer.contents b)
          (list_size (int_bound 6)
             (map Uchar.of_int
                (oneof [ int_bound 0x7f; int_range 0x80 0xd7ff;
                         int_range 0xe000 0x10ffff ])));
      ]
  in
  let flt =
    oneof
      [ float; map float_of_int small_signed_int;
        oneofl [ nan; infinity; neg_infinity; -0.; 1e300; 5e-324 ] ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let leaf =
           oneof
             [
               return Json.Null; map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int; map (fun f -> Json.Float f) flt;
               map (fun s -> Json.String s) str;
             ]
         in
         if depth = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.List xs)
                     (list_size (int_bound 4) (self (depth - 1))));
               (1, map (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4) (pair str (self (depth - 1)))));
             ])

let qcheck_round_trip =
  Testutil.qtest ~count:500 "parse (to_string v) = v, repaired"
    (QCheck.make ~print:Json.to_string gen_value)
    (fun v -> Json.parse (Json.to_string v) = Ok (expected v))

(* ------------------------------------------------------------------ *)
(* CLI pins                                                            *)
(* ------------------------------------------------------------------ *)

(* [Testutil.run_cli] runs the CLI from _build/default, so the corpus
   paths it prints read test/corpus/..., as in the goldens. *)
let pins_dir = "corpus/json-pins"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The number tokens of a JSON text, in document order. *)
let number_tokens s =
  let n = String.length s in
  let toks = ref [] in
  let rec go i =
    if i < n then
      match s.[i] with
      | '"' ->
          let rec close j =
            if s.[j] = '\\' then close (j + 2)
            else if s.[j] = '"' then j + 1
            else close (j + 1)
          in
          go (close (i + 1))
      | '-' | '0' .. '9' ->
          let j = ref i in
          while
            !j < n
            && match s.[!j] with
               | '-' | '+' | '.' | 'e' | 'E' | '0' .. '9' -> true
               | _ -> false
          do
            incr j
          done;
          toks := String.sub s i (!j - i) :: !toks;
          go !j
      | _ -> go (i + 1)
  in
  go 0;
  List.rev !toks

(* Half a unit of a number token's last printed digit. *)
let half_unit tok =
  let mantissa, exp =
    match String.index_from_opt (String.lowercase_ascii tok) 0 'e' with
    | Some k ->
        ( String.sub tok 0 k,
          int_of_string
            (let e = String.sub tok (k + 1) (String.length tok - k - 1) in
             if e.[0] = '+' then String.sub e 1 (String.length e - 1) else e) )
    | None -> (tok, 0)
  in
  let frac =
    match String.index_opt mantissa '.' with
    | Some d -> String.length mantissa - d - 1
    | None -> 0
  in
  0.5 *. (10. ** float_of_int (exp - frac))

let parse_exn what s =
  match Json.parse s with
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: not strict UTF-8 JSON: %s" what m

(* Structural comparison of [got] against the golden text [golden]. *)
let check_structural name golden got =
  let want = parse_exn (name ^ " (golden)") golden in
  let got = parse_exn name got in
  let toks = ref (number_tokens golden) in
  let fail path fmt = Alcotest.failf ("%s at %s: " ^^ fmt) name path in
  let number path w g =
    let tok = List.hd !toks in
    toks := List.tl !toks;
    if Float.abs (w -. g) > half_unit tok *. (1. +. 1e-9) then
      fail path "%s (golden %s)" (Json.to_string (Json.Float g)) tok
  in
  let rec walk path w g =
    match (w, g) with
    | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) ->
        let num = function
          | Json.Int i -> float_of_int i
          | Json.Float f -> f
          | _ -> assert false
        in
        number path (num w) (num g)
    | Json.List ws, Json.List gs ->
        if List.length ws <> List.length gs then
          fail path "%d elements (golden %d)" (List.length gs)
            (List.length ws);
        List.iteri (fun i (w, g) -> walk (Printf.sprintf "%s[%d]" path i) w g)
          (List.combine ws gs)
    | Json.Obj ws, Json.Obj gs ->
        if List.map fst ws <> List.map fst gs then
          fail path "keys %s (golden %s)"
            (String.concat "," (List.map fst gs))
            (String.concat "," (List.map fst ws));
        List.iter2 (fun (k, w) (_, g) -> walk (path ^ "." ^ k) w g) ws gs
    | _ ->
        if w <> g then
          fail path "%s (golden %s)" (Json.to_string g) (Json.to_string w)
  in
  walk "$" want got

let json_pins =
  [
    ("lint-all.json", 0, [ "lint"; "--all"; "--json" ]);
    ("analyze-all.json", 0, [ "analyze"; "--all"; "--json" ]);
    ("verify-static-all.json", 0, [ "verify"; "--static"; "--all"; "--json" ]);
    ( "analyze-ring-symmetry.json",
      0,
      [ "analyze"; "--algo"; "ring-allreduce"; "-t"; "custom:8:8";
        "--symmetry"; "--json" ] );
    ( "analyze-hier-symmetry.json",
      0,
      [ "analyze"; "--algo"; "hierarchical-allreduce"; "-t"; "custom:8:8";
        "--symmetry"; "--json" ] );
    ("fuzz-seed42.json", 0, [ "fuzz"; "--seed"; "42"; "--cases"; "20"; "--json" ]);
    ( "fuzz-corpus-dialect.json",
      0,
      [ "fuzz"; "--corpus"; "test/corpus/xml-dialect"; "--seed"; "42";
        "--json" ] );
    ("chaos-quick.json", 0, [ "chaos"; "--quick"; "--json" ]);
  ]
  @ (Sys.readdir "corpus/xml-bad" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
    |> List.sort compare
    |> List.map (fun f ->
           ( Filename.concat "xml-bad" (Filename.chop_suffix f ".xml" ^ ".json"),
             2,
             [ "verify"; "test/corpus/xml-bad/" ^ f; "--json" ] )))

let text_pins =
  [
    ("lint-all.txt", [ "lint"; "--all" ]);
    ("analyze-all.txt", [ "analyze"; "--all" ]);
    ("verify-static-all.txt", [ "verify"; "--static"; "--all" ]);
  ]

let test_json_pin (golden, code, args) () =
  let got_code, out, _ = Testutil.run_cli args in
  Alcotest.(check int) (golden ^ " exit code") code got_code;
  check_structural golden (read_file (Filename.concat pins_dir golden)) out

let test_text_pin (golden, args) () =
  let code, out, _ = Testutil.run_cli args in
  Alcotest.(check int) (golden ^ " exit code") 0 code;
  Alcotest.(check string) golden
    (read_file (Filename.concat pins_dir golden))
    out

let test_trace_pin () =
  let path = Filename.temp_file "msccl-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _, _ =
        Testutil.run_cli
          [ "simulate"; "ring-allreduce"; "-t"; "ndv4:1"; "-s"; "1KB";
            "--trace"; path ]
      in
      Alcotest.(check int) "exit code" 0 code;
      check_structural "trace-ring-1KB.json"
        (read_file (Filename.concat pins_dir "trace-ring-1KB.json"))
        (read_file path))

(* A rejected file whose name is not valid UTF-8 still yields valid
   UTF-8 JSON: the name's 0xFF byte prints as U+FFFD in "file" and in
   every "context" frame. *)
let test_invalid_utf8_file_name () =
  let dir = Filename.temp_dir "msccl-json" "" in
  let path = Filename.concat dir "name\xff.xml" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "<algo");
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      let code, out, _ = Testutil.run_cli [ "verify"; path; "--json" ] in
      Alcotest.(check int) "rejected" 2 code;
      let repaired = Filename.concat dir "name\u{fffd}.xml" in
      match parse_exn "verify --json" out with
      | Json.List (d :: _) ->
          Alcotest.(check bool) "file repaired" true
            (Json.member "file" d = Json.String repaired);
          (match Json.member "context" d with
          | Json.List (Json.String c :: _) ->
              Alcotest.(check bool) "context repaired" true
                (String.ends_with ~suffix:(repaired ^ ":1:1") c)
          | v -> Alcotest.failf "context: %s" (Json.to_string v))
      | v -> Alcotest.failf "expected diagnostics, got %s" (Json.to_string v))

let () =
  Alcotest.run "json"
    [
      ( "json",
        [
          Testutil.tc "escaping" test_escaping;
          Testutil.tc "floats" test_floats;
          Testutil.tc "layout" test_layout;
          Testutil.tc "parse" test_parse;
          Testutil.tc "member" test_member;
          qcheck_round_trip;
        ] );
      ( "pins",
        List.map
          (fun ((golden, _, _) as pin) -> Testutil.tc golden (test_json_pin pin))
          json_pins
        @ List.map
            (fun ((golden, _) as pin) -> Testutil.tc golden (test_text_pin pin))
            text_pins
        @ [
            Testutil.tc "trace-ring-1KB.json" test_trace_pin;
            Testutil.tc "invalid UTF-8 file name" test_invalid_utf8_file_name;
          ] );
    ]

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_escaped b s =
  let rec go i =
    if i < String.length s then
      match s.[i] with
      | '"' -> Buffer.add_string b "\\\""; go (i + 1)
      | '\\' -> Buffer.add_string b "\\\\"; go (i + 1)
      | '\n' -> Buffer.add_string b "\\n"; go (i + 1)
      | '\r' -> Buffer.add_string b "\\r"; go (i + 1)
      | '\t' -> Buffer.add_string b "\\t"; go (i + 1)
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c); go (i + 1)
      | c when c < '\x80' -> Buffer.add_char b c; go (i + 1)
      | _ ->
          let d = String.get_utf_8_uchar s i in
          let len = Uchar.utf_decode_length d in
          if Uchar.utf_decode_is_valid d then Buffer.add_substring b s i len
          else Buffer.add_string b "\\ufffd";
          go (i + len)
  in
  go 0

let float_spelling f =
  let s = Printf.sprintf "%.15g" f in
  let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let to_string v =
  let b = Buffer.create 256 in
  let seq op cl f xs =
    Buffer.add_char b op;
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; f x) xs;
    Buffer.add_char b cl
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f when Float.is_finite f -> Buffer.add_string b (float_spelling f)
    | Float _ -> Buffer.add_string b "null"
    | String s -> Buffer.add_char b '"'; add_escaped b s; Buffer.add_char b '"'
    | List xs -> seq '[' ']' go xs
    | Obj kvs ->
        seq '{' '}' (fun (k, v) -> go (String k); Buffer.add_char b ':'; go v) kvs
  in
  go v;
  Buffer.contents b

let to_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string v);
      output_char oc '\n')

exception Syntax of int * string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let rec ws () =
    if String.contains " \t\n\r" (peek ()) then (incr pos; ws ())
  in
  let literal w v = String.iter expect w; v in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex c = String.contains "0123456789abcdefABCDEF" c in
    if h = "" || not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      if !pos >= n then fail "unterminated string";
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match String.index_opt "\"\\/bfnrt" e with
          | Some k -> Buffer.add_char b "\"\\/\b\012\n\r\t".[k]
          | None when e = 'u' ->
              let u = hex4 () in
              let u =
                if u land 0xFC00 = 0xDC00 then fail "unpaired surrogate"
                else if u land 0xFC00 <> 0xD800 then u
                else begin
                  expect '\\'; expect 'u';
                  let lo = hex4 () in
                  if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
                  0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
                end
              in
              Buffer.add_utf_8_uchar b (Uchar.of_int u)
          | None -> fail "bad escape");
          go ()
      | c when c < ' ' -> fail "control character in string"
      | c when c < '\x80' -> Buffer.add_char b c; go ()
      | _ ->
          let d = String.get_utf_8_uchar s (!pos - 1) in
          if not (Uchar.utf_decode_is_valid d) then fail "invalid UTF-8";
          Buffer.add_utf_8_uchar b (Uchar.utf_decode_uchar d);
          pos := !pos - 1 + Uchar.utf_decode_length d;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let from = !pos in
      while '0' <= peek () && peek () <= '9' do incr pos done;
      if !pos = from then fail "expected a digit"
    in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    let frac = peek () = '.' in
    if frac then (incr pos; digits ());
    let exp = peek () = 'e' || peek () = 'E' in
    if exp then begin
      incr pos;
      if String.contains "+-" (peek ()) then incr pos;
      digits ()
    end;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i when not (frac || exp) -> Int i
    | _ -> Float (float_of_string lit)
  in
  (* Comma-separated items up to [close]; the opener is consumed. *)
  let seq close item =
    ws ();
    if peek () = close then (incr pos; [])
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if peek () = ',' then (incr pos; go acc)
        else (expect close; List.rev acc)
      in
      go []
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> incr pos; Obj (seq '}' pair)
    | '[' -> incr pos; List (seq ']' value)
    | '"' -> String (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "expected a value"
  and pair () =
    ws ();
    let k = string_ () in
    ws ();
    expect ':';
    (k, value ())
  in
  try
    let v = value () in
    ws ();
    if !pos < n then fail "trailing characters";
    Ok v
  with Syntax (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let member k = function
  | Obj kvs -> Option.value (List.assoc_opt k kvs) ~default:Null
  | _ -> Null

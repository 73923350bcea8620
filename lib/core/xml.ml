(* One-pass positioned XML lexer, tree builder and MSCCL-IR printer.

   The lexer makes a single forward pass over the source and emits
   start-element and end-element events; each start event carries the
   tag, its 1-based line:col and its attributes, each positioned too. The
   open-element stack is explicit, so nesting depth costs heap, not OCaml
   stack. Every failure raises a structured {!Parse_error} carrying the
   message, the file label, the position and the open elements rendered
   "<tag> at FILE:LINE:COL" — the ingestion layer (lib/interop) and the
   golden bad-XML corpus depend on those positions being exact. *)

type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

type tree = {
  tag : string;
  attrs : (string * string) list;
  children : tree list;
  t_pos : pos;
  t_attr_pos : (string * pos) list;
}

(* Synthesized nodes carry no source position. *)
let el tag attrs children = { tag; attrs; children; t_pos = no_pos; t_attr_pos = [] }

let attr_pos t k =
  match List.assoc_opt k t.t_attr_pos with Some p -> p | None -> t.t_pos

type attr = { a_name : string; a_value : string; a_pos : pos }

type error = {
  e_message : string;
  e_file : string;
  e_pos : pos;
  e_context : string list;
}

exception Parse_error of error

let frame ~file tag p =
  if p = no_pos then Printf.sprintf "<%s>" tag
  else Printf.sprintf "<%s> at %s:%d:%d" tag file p.line p.col

let error_to_string e =
  let b = Buffer.create 128 in
  if e.e_pos = no_pos then
    Buffer.add_string b (Printf.sprintf "%s: %s" e.e_file e.e_message)
  else
    Buffer.add_string b
      (Printf.sprintf "%s:%d:%d: %s" e.e_file e.e_pos.line e.e_pos.col
         e.e_message);
  List.iter (fun c -> Buffer.add_string b ("\n  in " ^ c)) e.e_context;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Printing: one element writer into one Buffer                        *)
(* ------------------------------------------------------------------ *)

let add_escaped b s =
  String.iter
    (function
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | '\'' -> Buffer.add_string b "&apos;"
      | c -> Buffer.add_char b c)
    s

let start_tag b tag =
  Buffer.add_char b '<';
  Buffer.add_string b tag

let attr_start b k =
  Buffer.add_char b ' ';
  Buffer.add_string b k;
  Buffer.add_string b "=\""

let attr b k v =
  attr_start b k;
  add_escaped b v;
  Buffer.add_char b '"'

let int_attr b k n =
  attr_start b k;
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b '"'

(* Ends the start tag of an element at [depth]: [/>] without children,
   else each child on its own line two spaces deeper, then the end tag. *)
let children b depth tag items write =
  if Array.length items = 0 then Buffer.add_string b "/>"
  else begin
    Buffer.add_char b '>';
    let indent d =
      Buffer.add_char b '\n';
      for _ = 1 to 2 * d do
        Buffer.add_char b ' '
      done
    in
    Array.iter
      (fun x ->
        indent (depth + 1);
        write (depth + 1) x)
      items;
    indent depth;
    Buffer.add_string b "</";
    Buffer.add_string b tag;
    Buffer.add_char b '>'
  end

let rec write_tree b depth t =
  start_tag b t.tag;
  List.iter (fun (k, v) -> attr b k v) t.attrs;
  children b depth t.tag (Array.of_list t.children) (write_tree b)

let tree_to_string t =
  let b = Buffer.create 4096 in
  write_tree b 0 t;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Lexing                                                              *)
(* ------------------------------------------------------------------ *)

type lexer = {
  src : string;
  file : string;
  mutable i : int;  (* byte offset *)
  mutable line : int;
  mutable bol : int;  (* offset of the current line's first byte *)
  mutable open_els : (string * pos) list;  (* innermost first *)
}

let lexer ?(file = "<string>") src =
  { src; file; i = 0; line = 1; bol = 0; open_els = [] }

let here l = { line = l.line; col = l.i - l.bol + 1 }

let raise_at l p fmt =
  Format.kasprintf
    (fun m ->
      raise
        (Parse_error
           {
             e_message = m;
             e_file = l.file;
             e_pos = p;
             e_context =
               List.map (fun (tag, p) -> frame ~file:l.file tag p) l.open_els;
           }))
    fmt

let fail l fmt = raise_at l (here l) fmt

let eof l = l.i >= String.length l.src

(* The byte under the cursor; callers check [eof] first. *)
let peek l = String.unsafe_get l.src l.i

let bump l =
  if peek l = '\n' then begin
    l.line <- l.line + 1;
    l.bol <- l.i + 1
  end;
  l.i <- l.i + 1

let looking_at l s =
  let n = String.length s in
  l.i + n <= String.length l.src
  &&
  let rec go k =
    k = n
    || String.unsafe_get l.src (l.i + k) = String.unsafe_get s k && go (k + 1)
  in
  go 0

let expect l ch =
  if (not (eof l)) && peek l = ch then l.i <- l.i + 1
  else if eof l then
    fail l "expected %S but reached end of input" (String.make 1 ch)
  else fail l "expected %S, found %C" (String.make 1 ch) (peek l)

let is_name_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = ':' || ch = '.'

let rec skip_ws l =
  if not (eof l) then
    match peek l with
    | ' ' | '\t' | '\r' ->
        l.i <- l.i + 1;
        skip_ws l
    | '\n' ->
        bump l;
        skip_ws l
    | _ -> ()

(* Moves past the first [close] at or after the cursor; [what] names the
   construct opened at [p] when there is none. *)
let rec skip_past l close p what =
  if eof l then raise_at l p "unterminated %s (opened here)" what
  else if looking_at l close then l.i <- l.i + String.length close
  else begin
    bump l;
    skip_past l close p what
  end

let rec skip_ws_and_comments l =
  skip_ws l;
  if looking_at l "<!--" then begin
    let p = here l in
    l.i <- l.i + 4;
    skip_past l "-->" p "comment";
    skip_ws_and_comments l
  end

let read_name l =
  let start = l.i in
  while (not (eof l)) && is_name_char (peek l) do
    l.i <- l.i + 1
  done;
  if l.i = start then
    if eof l then fail l "expected a name but reached end of input"
    else fail l "expected a name, found %C" (peek l);
  String.sub l.src start (l.i - start)

(* ------------------------------------------------------------------ *)
(* Entities                                                            *)
(* ------------------------------------------------------------------ *)

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let is_digit ch = ch >= '0' && ch <= '9'

let is_hex ch =
  is_digit ch || (ch >= 'a' && ch <= 'f') || (ch >= 'A' && ch <= 'F')

(* Decodes the entity whose '&' sits under the cursor. *)
let read_entity l b =
  let amp_pos = here l in
  l.i <- l.i + 1;
  let start = l.i in
  let rec scan n =
    if n > 12 then
      raise_at l amp_pos "malformed entity: no ';' within 12 characters of '&'"
    else if eof l then
      raise_at l amp_pos "malformed entity: unterminated reference"
    else if peek l = ';' then begin
      let name = String.sub l.src start (l.i - start) in
      l.i <- l.i + 1;
      name
    end
    else begin
      bump l;
      scan (n + 1)
    end
  in
  let name = scan 0 in
  match name with
  | "amp" -> Buffer.add_char b '&'
  | "lt" -> Buffer.add_char b '<'
  | "gt" -> Buffer.add_char b '>'
  | "quot" -> Buffer.add_char b '"'
  | "apos" -> Buffer.add_char b '\''
  | "" -> raise_at l amp_pos "malformed entity: empty reference '&;'"
  | _ when name.[0] = '#' ->
      let digits = String.sub name 1 (String.length name - 1) in
      let code =
        if
          String.length digits >= 2
          && (digits.[0] = 'x' || digits.[0] = 'X')
          && String.for_all is_hex
               (String.sub digits 1 (String.length digits - 1))
        then
          int_of_string_opt
            ("0x" ^ String.sub digits 1 (String.length digits - 1))
        else if String.length digits >= 1 && String.for_all is_digit digits
        then int_of_string_opt digits
        else None
      in
      (match code with
      | Some cp when cp >= 1 && cp <= 0x10FFFF -> add_utf8 b cp
      | Some cp -> raise_at l amp_pos
          "numeric character reference '&%s;' is out of range (%d)" name cp
      | None ->
          raise_at l amp_pos "malformed numeric character reference '&%s;'"
            name)
  | _ -> raise_at l amp_pos "unknown entity '&%s;'" name

(* Decodes entity references into [b] up to the closing quote of a value
   whose quote opened at [quote], or to the end of input for a bare
   fragment ([quote = None]). *)
let rec decode l b ~quote =
  if eof l then
    Option.iter
      (fun p -> raise_at l p "unterminated attribute value (quote opened here)")
      quote
  else
    match peek l with
    | '"' when quote <> None -> l.i <- l.i + 1
    | '&' ->
        read_entity l b;
        decode l b ~quote
    | c ->
        Buffer.add_char b c;
        bump l;
        decode l b ~quote

let unescape s =
  let b = Buffer.create (String.length s) in
  decode (lexer ~file:"<fragment>" s) b ~quote:None;
  Buffer.contents b

let rec skip_plain l =
  if (not (eof l)) && peek l <> '"' && peek l <> '&' then begin
    bump l;
    skip_plain l
  end

(* A value without '&' is sliced straight from the source. *)
let read_value l =
  let line = l.line and col = l.i - l.bol + 1 in
  expect l '"';
  let start = l.i in
  skip_plain l;
  if (not (eof l)) && peek l = '"' then begin
    l.i <- l.i + 1;
    String.sub l.src start (l.i - 1 - start)
  end
  else begin
    let b = Buffer.create (l.i - start + 16) in
    Buffer.add_substring b l.src start (l.i - start);
    decode l b ~quote:(Some { line; col });
    Buffer.contents b
  end

(* ------------------------------------------------------------------ *)
(* Elements                                                            *)
(* ------------------------------------------------------------------ *)

(* Reads the start tag under the cursor, emits it, and closes it at once
   when it ends in "/>". *)
let element l ~on_start ~on_end =
  let p = here l in
  l.i <- l.i + 1;
  let tag = read_name l in
  l.open_els <- (tag, p) :: l.open_els;
  let rec attrs acc =
    skip_ws l;
    if eof l then raise_at l p "unterminated element <%s> (opened here)" tag
    else
      match peek l with
      | '/' | '>' -> List.rev acc
      | ch when is_name_char ch ->
          let k_pos = here l in
          let k = read_name l in
          (match List.find_opt (fun a -> String.equal a.a_name k) acc with
          | Some first ->
              raise_at l k_pos
                "duplicate attribute %s on <%s> (first occurrence at %s:%d:%d)"
                k tag l.file first.a_pos.line first.a_pos.col
          | None -> ());
          skip_ws l;
          expect l '=';
          skip_ws l;
          let v = read_value l in
          attrs ({ a_name = k; a_value = v; a_pos = k_pos } :: acc)
      | ch ->
          fail l "unexpected %C in <%s> (expected an attribute name, '>' or '/>')"
            ch tag
  in
  let attrs = attrs [] in
  let empty = looking_at l "/>" in
  if empty then l.i <- l.i + 2 else expect l '>';
  on_start tag p attrs;
  if empty then begin
    l.open_els <- List.tl l.open_els;
    on_end ()
  end

let lex ?file s ~on_start ~on_end =
  let l = lexer ?file s in
  if looking_at l "\xef\xbb\xbf" then l.i <- 3;
  skip_ws_and_comments l;
  if looking_at l "<?" then skip_past l "?>" (here l) "XML declaration";
  skip_ws_and_comments l;
  if eof l then fail l "expected an element but reached end of input";
  if looking_at l "</" then fail l "unexpected closing tag";
  if peek l <> '<' then
    fail l "expected an element, found %C (text content is not supported)"
      (peek l);
  element l ~on_start ~on_end;
  (* Content of the innermost open element, until the root closes. *)
  let rec content () =
    match l.open_els with
    | [] -> ()
    | (tag, p) :: rest ->
        skip_ws_and_comments l;
        if looking_at l "</" then begin
          let close_pos = here l in
          l.i <- l.i + 2;
          let close = read_name l in
          if not (String.equal close tag) then
            raise_at l close_pos
              "mismatched closing tag </%s> for <%s> (opened at %s:%d:%d)"
              close tag l.file p.line p.col;
          skip_ws l;
          expect l '>';
          l.open_els <- rest;
          on_end ()
        end
        else if eof l then
          raise_at l p "unterminated element <%s> (opened here)" tag
        else if peek l = '<' then element l ~on_start ~on_end
        else
          fail l "expected an element, found %C (text content is not supported)"
            (peek l);
        content ()
  in
  content ();
  skip_ws_and_comments l;
  if not (eof l) then
    fail l "trailing content after the root element (found %C)" (peek l)

type building = {
  b_tag : string;
  b_pos : pos;
  b_attrs : attr list;
  mutable b_children : tree list;  (* reversed *)
}

let parse_tree ?file s =
  let stack = ref [] and root = ref None in
  lex ?file s
    ~on_start:(fun b_tag b_pos b_attrs ->
      stack := { b_tag; b_pos; b_attrs; b_children = [] } :: !stack)
    ~on_end:(fun () ->
      match !stack with
      | [] -> ()
      | b :: rest ->
          let t =
            {
              tag = b.b_tag;
              attrs = List.map (fun a -> (a.a_name, a.a_value)) b.b_attrs;
              children = List.rev b.b_children;
              t_pos = b.b_pos;
              t_attr_pos = List.map (fun a -> (a.a_name, a.a_pos)) b.b_attrs;
            }
          in
          stack := rest;
          (match rest with
          | parent :: _ -> parent.b_children <- t :: parent.b_children
          | [] -> root := Some t));
  Option.get !root

(* ------------------------------------------------------------------ *)
(* IR -> XML                                                           *)
(* ------------------------------------------------------------------ *)

let ids_attr b k ids =
  attr_start b k;
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int id))
    ids;
  Buffer.add_char b '"'

let loc_attrs b prefix = function
  | None ->
      attr b (prefix ^ "buf") "n";
      int_attr b (prefix ^ "off") (-1)
  | Some (l : Loc.t) ->
      attr b (prefix ^ "buf") (Buffer_id.name l.Loc.buf);
      int_attr b (prefix ^ "off") l.Loc.index

let write_step b _depth (st : Ir.step) =
  start_tag b "step";
  int_attr b "s" st.Ir.s;
  attr b "type" (Instr.opcode_name st.Ir.op);
  loc_attrs b "src" st.Ir.src;
  loc_attrs b "dst" st.Ir.dst;
  int_attr b "cnt" st.Ir.count;
  (match st.Ir.depends with
  | [] ->
      int_attr b "depid" (-1);
      int_attr b "deps" (-1)
  | ds ->
      ids_attr b "depid" (List.map fst ds);
      ids_attr b "deps" (List.map snd ds));
  attr b "hasdep" (if st.Ir.has_dep then "1" else "0");
  Buffer.add_string b "/>"

let write_tb b depth (tb : Ir.tb) =
  start_tag b "tb";
  int_attr b "id" tb.Ir.tb_id;
  int_attr b "send" tb.Ir.send;
  int_attr b "recv" tb.Ir.recv;
  int_attr b "chan" tb.Ir.chan;
  children b depth "tb" tb.Ir.steps (write_step b)

let write_gpu b depth (g : Ir.gpu) =
  start_tag b "gpu";
  int_attr b "id" g.Ir.gpu_id;
  int_attr b "i_chunks" g.Ir.input_chunks;
  int_attr b "o_chunks" g.Ir.output_chunks;
  int_attr b "s_chunks" g.Ir.scratch_chunks;
  children b depth "gpu" g.Ir.tbs (write_tb b)

let to_buffer (ir : Ir.t) =
  let b = Buffer.create 65536 in
  let coll = ir.Ir.collective in
  Buffer.add_string b "<?xml version=\"1.0\"?>\n";
  start_tag b "algo";
  attr b "name" ir.Ir.name;
  attr b "proto" (Msccl_topology.Protocol.name ir.Ir.proto);
  int_attr b "nranks" coll.Collective.num_ranks;
  int_attr b "chunk_factor" coll.Collective.chunk_factor;
  attr b "inplace" (if coll.Collective.inplace then "1" else "0");
  (match coll.Collective.kind with
  | Collective.Broadcast r | Collective.Reduce r | Collective.Gather r
  | Collective.Scatter r ->
      attr b "coll" (Collective.name coll);
      int_attr b "root" r
  | Collective.Custom c ->
      attr b "coll" "custom";
      attr b "cname" c.Collective.custom_name;
      int_attr b "in_chunks" c.Collective.input_chunks;
      int_attr b "out_chunks" c.Collective.output_chunks
  | Collective.Allreduce | Collective.Allgather | Collective.Reduce_scatter
  | Collective.Alltoall | Collective.Alltonext ->
      attr b "coll" (Collective.name coll));
  children b 0 "algo" ir.Ir.gpus (write_gpu b);
  Buffer.add_char b '\n';
  b

let to_string ir = Buffer.contents (to_buffer ir)

let save ir path =
  Out_channel.with_open_text path (fun oc ->
      Buffer.output_buffer oc (to_buffer ir))

open Msccl_core

(* ------------------------------------------------------------------ *)
(* Deterministic RNG (splitmix64)                                      *)
(* ------------------------------------------------------------------ *)

type rng = { mutable s : int64 }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand r n =
  if n <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next r) 1) (Int64.of_int n))

let pick r l = List.nth l (rand r (List.length l))

(* ------------------------------------------------------------------ *)
(* Byte-level corruptions                                              *)
(* ------------------------------------------------------------------ *)

let hostile_chars = [ '<'; '>'; '&'; '"'; ';'; '='; '\x00'; '\n'; '#'; '\'' ]

let hostile_tokens =
  [ "&"; "&#;"; "&#x;"; "&bogus;"; "&#xFFFFFFFF;"; "&#0;"; "<"; "\"";
    "</tb>"; "<!--"; "-->"; "<?"; "<step"; "]]>"; "\xff\xfe" ]

let byte_mangle r doc =
  let n = String.length doc in
  if n = 0 then (doc ^ pick r hostile_tokens, "insert into empty doc")
  else
    match rand r 6 with
    | 0 ->
        let at = rand r n in
        (String.sub doc 0 at, Printf.sprintf "truncate at byte %d" at)
    | 1 ->
        let at = rand r n in
        let len = 1 + rand r (min 40 (n - at)) in
        ( String.sub doc 0 at ^ String.sub doc (at + len) (n - at - len),
          Printf.sprintf "delete %d byte(s) at %d" len at )
    | 2 ->
        let at = rand r n in
        let len = 1 + rand r (min 40 (n - at)) in
        let span = String.sub doc at len in
        ( String.sub doc 0 (at + len) ^ span ^ String.sub doc (at + len) (n - at - len),
          Printf.sprintf "duplicate %d byte(s) at %d" len at )
    | 3 ->
        let at = rand r n in
        let c = pick r hostile_chars in
        let b = Bytes.of_string doc in
        Bytes.set b at c;
        ( Bytes.to_string b,
          Printf.sprintf "flip byte %d to %C" at c )
    | 4 ->
        let at = rand r (n + 1) in
        let tok = pick r hostile_tokens in
        ( String.sub doc 0 at ^ tok ^ String.sub doc at (n - at),
          Printf.sprintf "insert %S at byte %d" tok at )
    | _ ->
        let i = rand r n and j = rand r n in
        let b = Bytes.of_string doc in
        let ci = Bytes.get b i in
        Bytes.set b i (Bytes.get b j);
        Bytes.set b j ci;
        (Bytes.to_string b, Printf.sprintf "swap bytes %d and %d" i j)

(* ------------------------------------------------------------------ *)
(* Tree-level corruptions                                              *)
(* ------------------------------------------------------------------ *)

let rec count_nodes (t : Xml.tree) =
  List.fold_left (fun a c -> a + count_nodes c) 1 t.Xml.children

(* Apply [f] to the [n]-th node in preorder. *)
let map_nth t n f =
  let k = ref n in
  let rec go t =
    let here = !k = 0 in
    decr k;
    let t = if here then f t else t in
    { t with Xml.children = List.map go t.Xml.children }
  in
  go t

let garbage_ints = [ "-1"; "0"; "9999999"; "4294967296"; ""; "1x"; "- 2" ]

let tree_mangle r (t : Xml.tree) =
  let total = count_nodes t in
  let target = rand r total in
  let what = ref "no-op" in
  let t' =
    map_nth t target (fun (n : Xml.tree) ->
        match rand r 10 with
        | 0 when n.Xml.attrs <> [] ->
            let k, v = pick r n.Xml.attrs in
            what := Printf.sprintf "duplicate attribute %s on <%s>" k n.Xml.tag;
            { n with Xml.attrs = n.Xml.attrs @ [ (k, v) ] }
        | 1 when n.Xml.attrs <> [] ->
            let k, _ = pick r n.Xml.attrs in
            what := Printf.sprintf "drop attribute %s from <%s>" k n.Xml.tag;
            { n with Xml.attrs = List.remove_assoc k n.Xml.attrs }
        | 2 when List.length n.Xml.attrs >= 2 ->
            let ks = List.map fst n.Xml.attrs in
            let a = pick r ks and b = pick r ks in
            what := Printf.sprintf "swap values of %s and %s on <%s>" a b n.Xml.tag;
            let va = List.assoc a n.Xml.attrs and vb = List.assoc b n.Xml.attrs in
            {
              n with
              Xml.attrs =
                List.map
                  (fun (k, v) ->
                    if k = a then (k, vb) else if k = b then (k, va) else (k, v))
                  n.Xml.attrs;
            }
        | 3 when n.Xml.attrs <> [] ->
            let k, _ = pick r n.Xml.attrs in
            let g = pick r garbage_ints in
            what := Printf.sprintf "set %s=%S on <%s>" k g n.Xml.tag;
            {
              n with
              Xml.attrs =
                List.map (fun (k', v) -> if k' = k then (k', g) else (k', v)) n.Xml.attrs;
            }
        | 4 ->
            what := Printf.sprintf "rename <%s> to <%s_x>" n.Xml.tag n.Xml.tag;
            { n with Xml.tag = n.Xml.tag ^ "_x" }
        | 5 when n.Xml.children <> [] ->
            let i = rand r (List.length n.Xml.children) in
            what := Printf.sprintf "drop child %d of <%s>" i n.Xml.tag;
            { n with Xml.children = List.filteri (fun j _ -> j <> i) n.Xml.children }
        | 6 when n.Xml.children <> [] ->
            let i = rand r (List.length n.Xml.children) in
            let c = List.nth n.Xml.children i in
            what := Printf.sprintf "duplicate child %d of <%s>" i n.Xml.tag;
            { n with Xml.children = n.Xml.children @ [ c ] }
        | 7 when n.Xml.children <> [] ->
            what := Printf.sprintf "reverse children of <%s>" n.Xml.tag;
            { n with Xml.children = List.rev n.Xml.children }
        | 8 ->
            what := Printf.sprintf "add unknown attribute to <%s>" n.Xml.tag;
            { n with Xml.attrs = n.Xml.attrs @ [ ("xmangle", "1") ] }
        | _ ->
            what := Printf.sprintf "add unknown element inside <%s>" n.Xml.tag;
            { n with Xml.children = n.Xml.children @ [ Xml.el "mangled" [] [] ] })
  in
  (Xml.tree_to_string t', !what)

(* ------------------------------------------------------------------ *)

let mangle ~seed ~index doc =
  let r =
    { s = Int64.logxor (Int64.of_int seed)
            (Int64.mul (Int64.of_int (index + 1)) 0x9E3779B97F4A7C15L) }
  in
  ignore (next r);
  if rand r 2 = 0 then byte_mangle r doc
  else
    match Xml.parse_tree doc with
    | t ->
        let m, what = tree_mangle r t in
        (m, "tree: " ^ what)
    | exception Xml.Parse_error _ ->
        let m, what = byte_mangle r doc in
        (m, "byte: " ^ what)

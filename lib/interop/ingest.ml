open Msccl_core
module P = Msccl_topology.Protocol

type severity = Error | Warning

type diag = {
  d_severity : severity;
  d_rule : string;
  d_message : string;
  d_file : string;
  d_pos : Xml.pos;
  d_context : string list;
}

let errors ds = List.filter (fun d -> d.d_severity = Error) ds

let warnings ds = List.filter (fun d -> d.d_severity = Warning) ds

let sev_name = function Error -> "error" | Warning -> "warning"

let diag_to_string d =
  let head =
    if d.d_pos = Xml.no_pos then
      Printf.sprintf "%s: %s[%s]: %s" d.d_file (sev_name d.d_severity)
        d.d_rule d.d_message
    else
      Printf.sprintf "%s:%d:%d: %s[%s]: %s" d.d_file d.d_pos.Xml.line
        d.d_pos.Xml.col (sev_name d.d_severity) d.d_rule d.d_message
  in
  head ^ String.concat "" (List.map (fun c -> "\n  in " ^ c) d.d_context)

let diags_to_string ds = String.concat "\n" (List.map diag_to_string ds)

let diags_json ds =
  let one d =
    Json.(
      Obj
        [ ("severity", String (sev_name d.d_severity));
          ("rule", String d.d_rule); ("message", String d.d_message);
          ("file", String d.d_file);
          ("line", Int d.d_pos.Xml.line); ("col", Int d.d_pos.Xml.col);
          ("context", List (List.map (fun c -> String c) d.d_context)) ])
  in
  Json.List (List.map one ds)

(* ------------------------------------------------------------------ *)
(* Diagnostic accumulation                                             *)
(* ------------------------------------------------------------------ *)

(* Enclosing elements, innermost first, as tag and position; rendered
   "<tag> at FILE:LINE:COL" only when a diagnostic is emitted. *)
type ctx = (string * Xml.pos) list

type st = { s_file : string; mutable s_diags : diag list (* reversed *) }

let add st sev rule ~pos ~(ctx : ctx) fmt =
  Format.kasprintf
    (fun m ->
      st.s_diags <-
        {
          d_severity = sev;
          d_rule = rule;
          d_message = m;
          d_file = st.s_file;
          d_pos = pos;
          d_context =
            List.map (fun (tag, p) -> Xml.frame ~file:st.s_file tag p) ctx;
        }
        :: st.s_diags)
    fmt

let err st = add st Error

let warn st = add st Warning

let failed st = List.exists (fun d -> d.d_severity = Error) st.s_diags

(* ------------------------------------------------------------------ *)
(* Attribute access with aliases                                       *)
(* ------------------------------------------------------------------ *)

(* A start event: all the decoder sees of an element. *)
type el = { tag : string; pos : Xml.pos; attrs : Xml.attr list }

(* The first of [names] present, in the order given. *)
let rec get t = function
  | [] -> None
  | n :: names ->
      let rec find = function
        | [] -> get t names
        | (a : Xml.attr) :: rest ->
            if String.equal a.Xml.a_name n then Some a else find rest
      in
      find t.attrs

let attr_pos t name =
  match get t [ name ] with Some a -> a.Xml.a_pos | None -> t.pos

let int_of st ~ctx t (a : Xml.attr) =
  match int_of_string_opt (String.trim a.Xml.a_value) with
  | Some n -> Some n
  | None ->
      err st "schema" ~pos:a.Xml.a_pos ~ctx
        "<%s> attribute %s: %S is not an integer" t.tag a.Xml.a_name
        a.Xml.a_value;
      None

let req_int st ~ctx t names =
  match get t names with
  | None ->
      err st "schema" ~pos:t.pos ~ctx
        "<%s> is missing the required attribute %s" t.tag (List.hd names);
      None
  | Some a -> int_of st ~ctx t a

let opt_int st ~ctx t names ~default =
  match get t names with
  | None -> Some default
  | Some a -> int_of st ~ctx t a

let bool_of st ~ctx t (a : Xml.attr) =
  match String.lowercase_ascii (String.trim a.Xml.a_value) with
  | "1" | "true" -> Some true
  | "0" | "false" -> Some false
  | _ ->
      err st "schema" ~pos:a.Xml.a_pos ~ctx
        "<%s> attribute %s: %S is not a boolean (want 0/1/true/false)" t.tag
        a.Xml.a_name a.Xml.a_value;
      None

let warn_unknown_attrs st ~ctx t ~known =
  List.iter
    (fun (a : Xml.attr) ->
      if not (known a.Xml.a_name) then
        warn st "unknown-attribute" ~pos:a.Xml.a_pos ~ctx
          "<%s> has unknown attribute %s (ignored)" t.tag a.Xml.a_name)
    t.attrs

(* ------------------------------------------------------------------ *)
(* Dialect vocabularies                                                *)
(* ------------------------------------------------------------------ *)

(* Short codes are the wire format shared with msccl-tools; the long
   names appear in hand-written and third-party files. *)
let opcode_of_dialect s =
  match Instr.opcode_of_name s with
  | Some _ as op -> op
  | None -> (
      match String.lowercase_ascii s with
      | "send" -> Some Instr.Send
      | "recv" | "receive" -> Some Instr.Recv
      | "copy" -> Some Instr.Copy
      | "reduce" -> Some Instr.Reduce
      | "recv_reduce_copy" | "recvreducecopy" -> Some Instr.Recv_reduce_copy
      | "recv_copy_send" | "recvcopysend" -> Some Instr.Recv_copy_send
      | "recv_reduce_send" | "recvreducesend" -> Some Instr.Recv_reduce_send
      | "recv_reduce_copy_send" | "recvreducecopysend" ->
          Some Instr.Recv_reduce_copy_send
      | "none" -> Some Instr.Nop
      | _ -> None)

let rooted = function
  | Collective.Broadcast _ | Collective.Reduce _ | Collective.Gather _
  | Collective.Scatter _ ->
      true
  | _ -> false

let with_root kind r =
  match kind with
  | Collective.Broadcast _ -> Collective.Broadcast r
  | Collective.Reduce _ -> Collective.Reduce r
  | Collective.Gather _ -> Collective.Gather r
  | Collective.Scatter _ -> Collective.Scatter r
  | k -> k

(* ------------------------------------------------------------------ *)
(* Decoded intermediates (positions kept for semantic diagnostics)     *)
(* ------------------------------------------------------------------ *)

type dstep = {
  ds_pos : Xml.pos;
  ds_s : int;
  ds_op : Instr.opcode;
  ds_src : (Buffer_id.t * int) option;
  ds_dst : (Buffer_id.t * int) option;
  ds_count : int;
  ds_depends : (int * int) list;
  mutable ds_has_dep : bool;
}

type dtb = {
  dt_pos : Xml.pos;
  dt_id : int;
  dt_send : int;
  dt_recv : int;
  dt_chan : int;
  dt_steps : dstep array;
}

type dgpu = {
  dg_pos : Xml.pos;
  dg_id : int;
  dg_in : int;  (* -1 = undeclared *)
  dg_out : int;  (* -1 = undeclared *)
  dg_scratch : int;
  dg_tbs : dtb array;
}

(* ------------------------------------------------------------------ *)
(* Step / tb / gpu decoding                                            *)
(* ------------------------------------------------------------------ *)

let decode_loc st ~ctx t prefix =
  (* [None] = hard failure (diag recorded); [Some None] = no location. *)
  match get t [ prefix ^ "buf" ] with
  | None -> Some None
  | Some a -> (
      let v = a.Xml.a_value in
      match String.lowercase_ascii (String.trim v) with
      | "n" | "none" | "" -> Some None
      | b -> (
          match Buffer_id.of_name b with
          | None ->
              err st "schema" ~pos:a.Xml.a_pos ~ctx
                "<%s> attribute %s: unknown buffer %S (want i/o/s)" t.tag
                a.Xml.a_name v;
              None
          | Some buf -> (
              match get t [ prefix ^ "off" ] with
              | None ->
                  err st "schema" ~pos:t.pos ~ctx
                    "<%s> has %sbuf=%S but no %soff" t.tag prefix v prefix;
                  None
              | Some o -> (
                  match int_of st ~ctx t o with
                  | None -> None
                  | Some off when off < 0 ->
                      err st "range" ~pos:o.Xml.a_pos ~ctx
                        "<%s> attribute %soff: negative offset %d" t.tag
                        prefix off;
                      None
                  | Some off -> Some (Some (buf, off))))))

let decode_ids st ~ctx t name ~default =
  match get t [ name ] with
  | None -> Some default
  | Some a -> (
      let v = a.Xml.a_value in
      try
        Some
          (List.map
             (fun s -> int_of_string (String.trim s))
             (String.split_on_char ',' v))
      with Failure _ ->
        err st "schema" ~pos:a.Xml.a_pos ~ctx
          "<%s> attribute %s: bad id list %S" t.tag name v;
        None)

let decode_step st ~ctx t =
  let ctx = ("step", t.pos) :: ctx in
  warn_unknown_attrs st ~ctx t ~known:(function
    | "s" | "type" | "srcbuf" | "srcoff" | "dstbuf" | "dstoff" | "cnt"
    | "count" | "depid" | "deps" | "hasdep" ->
        true
    | _ -> false);
  let s = req_int st ~ctx t [ "s" ] in
  let op =
    match get t [ "type" ] with
    | None ->
        err st "schema" ~pos:t.pos ~ctx
          "<step> is missing the required attribute type";
        None
    | Some a -> (
        match opcode_of_dialect a.Xml.a_value with
        | Some op -> Some op
        | None ->
            err st "schema" ~pos:a.Xml.a_pos ~ctx
              "<step> has unknown opcode %S" a.Xml.a_value;
            None)
  in
  let count =
    match opt_int st ~ctx t [ "cnt"; "count" ] ~default:1 with
    | Some n when n <= 0 ->
        let pos =
          match get t [ "cnt"; "count" ] with
          | Some a -> a.Xml.a_pos
          | None -> t.pos
        in
        err st "range" ~pos ~ctx "<step> attribute cnt: nonpositive count %d"
          n;
        None
    | x -> x
  in
  let src = decode_loc st ~ctx t "src" in
  let dst = decode_loc st ~ctx t "dst" in
  let depends =
    match
      ( decode_ids st ~ctx t "depid" ~default:[ -1 ],
        decode_ids st ~ctx t "deps" ~default:[ -1 ] )
    with
    | Some [ -1 ], Some [ -1 ] -> Some []
    | Some tbs, Some steps when List.length tbs = List.length steps ->
        Some (List.combine tbs steps)
    | Some _, Some _ ->
        err st "schema" ~pos:t.pos ~ctx "<step> depid/deps length mismatch";
        None
    | _ -> None
  in
  let has_dep =
    match get t [ "hasdep" ] with
    | None -> Some false
    | Some a -> bool_of st ~ctx t a
  in
  match (s, op, count, src, dst, depends, has_dep) with
  | ( Some s,
      Some op,
      Some count,
      Some src,
      Some dst,
      Some depends,
      Some has_dep ) ->
      Some
        {
          ds_pos = t.pos;
          ds_s = s;
          ds_op = op;
          ds_src = src;
          ds_dst = dst;
          ds_count = count;
          ds_depends = depends;
          ds_has_dep = has_dep;
        }
  | _ -> None (* diagnostics already recorded; drop the step *)

(* The attributes of a <tb>: id, send, recv, chan. *)
let tb_head st ~ctx t =
  warn_unknown_attrs st ~ctx t ~known:(function
    | "id" | "send" | "recv" | "chan" -> true
    | _ -> false);
  let id = req_int st ~ctx t [ "id" ] in
  let send = opt_int st ~ctx t [ "send" ] ~default:(-1) in
  let recv = opt_int st ~ctx t [ "recv" ] ~default:(-1) in
  let chan = opt_int st ~ctx t [ "chan" ] ~default:0 in
  match (id, send, recv, chan) with
  | Some id, Some send, Some recv, Some chan -> Some (id, send, recv, chan)
  | _ -> None

(* The attributes of a <gpu>: id and the three buffer sizes. *)
let gpu_head st ~ctx t =
  warn_unknown_attrs st ~ctx t ~known:(function
    | "id" | "i_chunks" | "o_chunks" | "s_chunks" | "input_chunks"
    | "output_chunks" | "scratch_chunks" ->
        true
    | _ -> false);
  let id = req_int st ~ctx t [ "id" ] in
  let sized names what ~default =
    match opt_int st ~ctx t names ~default with
    | Some n when n < default ->
        err st "range" ~pos:t.pos ~ctx
          "<gpu> declares a negative %s buffer (%d chunks)" what n;
        None
    | x -> x
  in
  let i_chunks = sized [ "i_chunks"; "input_chunks" ] "input" ~default:(-1) in
  let o_chunks = sized [ "o_chunks"; "output_chunks" ] "output" ~default:(-1) in
  let s_chunks = sized [ "s_chunks"; "scratch_chunks" ] "scratch" ~default:0 in
  match (id, i_chunks, o_chunks, s_chunks) with
  | Some id, Some i, Some o, Some s -> Some (id, i, o, s)
  | _ -> None

(* The attributes of the <algo> root read before its children: unknown
   ones, name and protocol. *)
type algo = { a_el : el; a_ctx : ctx; a_name : string; a_proto : P.t option }

let algo_head st t =
  let ctx = [ ("algo", t.pos) ] in
  warn_unknown_attrs st ~ctx t ~known:(function
    | "name" | "proto" | "protocol" | "nranks" | "ngpus" | "chunk_factor"
    | "nchunksperloop" | "inplace" | "outofplace" | "coll" | "collective"
    | "root" | "cname" | "in_chunks" | "out_chunks"
    (* runtime-only msccl-tools attributes, ignored *)
    | "nchannels" | "minBytes" | "maxBytes" | "redop" | "version" ->
        true
    | _ -> false);
  let a_name =
    match get t [ "name" ] with
    | Some a -> a.Xml.a_value
    | None ->
        warn st "default" ~pos:t.pos ~ctx
          "<algo> has no name attribute; calling it \"imported\"";
        "imported"
  in
  let a_proto =
    match get t [ "proto"; "protocol" ] with
    | None ->
        warn st "default" ~pos:t.pos ~ctx
          "<algo> has no proto attribute; assuming Simple";
        Some P.Simple
    | Some a -> (
        match P.of_string a.Xml.a_value with
        | Some p -> Some p
        | None ->
            err st "schema" ~pos:a.Xml.a_pos ~ctx
              "unknown protocol %S (want Simple, LL, LL128 or SCCL)"
              a.Xml.a_value;
            None)
  in
  { a_el = t; a_ctx = ctx; a_name; a_proto }

(* ------------------------------------------------------------------ *)
(* Streaming decode: start/end events -> decoded gpus                  *)
(* ------------------------------------------------------------------ *)

type 'a open_el = {
  o_pos : Xml.pos;
  o_ctx : ctx;
  o_head : (int * int * int * int) option;
  mutable o_children : 'a list;  (* reversed *)
}

type frame = Algo of algo | Gpu of dtb open_el | Tb of dstep open_el

type dec = {
  st : st;
  mutable frames : frame list;  (* decoded open elements, innermost first *)
  mutable skip : int;  (* open elements inside an ignored one, itself included *)
  mutable root : algo option;
  mutable gpus : dgpu list;  (* reversed *)
}

let opened st ~ctx tag t head =
  let o_ctx = (tag, t.pos) :: ctx in
  { o_pos = t.pos; o_ctx; o_head = head st ~ctx:o_ctx t; o_children = [] }

let unknown d t ~ctx parent =
  warn d.st "unknown-element" ~pos:t.pos ~ctx
    "unknown element <%s> inside <%s> (ignored)" t.tag parent;
  d.skip <- 1

(* Everything inside a <step> or an unknown element is skipped. *)
let on_start d tag pos attrs =
  if d.skip > 0 then d.skip <- d.skip + 1
  else
    let st = d.st and t = { tag; pos; attrs } in
    match d.frames with
    | [] when tag = "algo" ->
        let a = algo_head st t in
        d.root <- Some a;
        d.frames <- [ Algo a ]
    | [] ->
        err st "schema" ~pos ~ctx:[] "expected <algo> root element, got <%s>"
          tag;
        d.skip <- 1
    | Algo a :: _ when tag = "gpu" ->
        d.frames <- Gpu (opened st ~ctx:a.a_ctx "gpu" t gpu_head) :: d.frames
    | Algo a :: _ -> unknown d t ~ctx:a.a_ctx "algo"
    | Gpu g :: _ when tag = "tb" ->
        d.frames <- Tb (opened st ~ctx:g.o_ctx "tb" t tb_head) :: d.frames
    | Gpu g :: _ -> unknown d t ~ctx:g.o_ctx "gpu"
    | Tb tb :: _ when tag = "step" ->
        Option.iter
          (fun s -> tb.o_children <- s :: tb.o_children)
          (decode_step st ~ctx:tb.o_ctx t);
        d.skip <- 1
    | Tb tb :: _ -> unknown d t ~ctx:tb.o_ctx "tb"

(* Elements whose attributes failed to decode are dropped here, after
   their children's diagnostics were collected. *)
let on_end d () =
  if d.skip > 0 then d.skip <- d.skip - 1
  else
    match d.frames with
    | Tb tb :: (Gpu g :: _ as rest) ->
        Option.iter
          (fun (dt_id, dt_send, dt_recv, dt_chan) ->
            g.o_children <-
              {
                dt_pos = tb.o_pos;
                dt_id;
                dt_send;
                dt_recv;
                dt_chan;
                dt_steps = Array.of_list (List.rev tb.o_children);
              }
              :: g.o_children)
          tb.o_head;
        d.frames <- rest
    | Gpu g :: rest ->
        Option.iter
          (fun (dg_id, dg_in, dg_out, dg_scratch) ->
            d.gpus <-
              {
                dg_pos = g.o_pos;
                dg_id;
                dg_in;
                dg_out;
                dg_scratch;
                dg_tbs = Array.of_list (List.rev g.o_children);
              }
              :: d.gpus)
          g.o_head;
        d.frames <- rest
    | _ :: rest -> d.frames <- rest
    | [] -> ()

(* ------------------------------------------------------------------ *)
(* Ordering tolerance: sort by declared id, reject duplicates and gaps *)
(* ------------------------------------------------------------------ *)

let order st ~ctx ~what ~id ~pos items =
  Array.stable_sort (fun a b -> Int.compare (id a) (id b)) items;
  let dup = ref false in
  for i = 1 to Array.length items - 1 do
    let a = items.(i - 1) and b = items.(i) in
    if id a = id b then begin
      dup := true;
      err st "schema" ~pos:(pos b) ~ctx
        "duplicate %s id %d (first declared at %s:%d:%d)" what (id a)
        st.s_file (pos a).Xml.line (pos a).Xml.col
    end
  done;
  (* Report only the first gap; the rest are cascades of it. *)
  if not !dup then begin
    let reported = ref false in
    Array.iteri
      (fun i x ->
        if (not !reported) && id x <> i then begin
          reported := true;
          err st "schema" ~pos:(pos x) ~ctx
            "%s ids are not contiguous: found id %d where %d was expected"
            what (id x) i
        end)
      items
  end

(* ------------------------------------------------------------------ *)
(* Semantic validation over the decoded program                        *)
(* ------------------------------------------------------------------ *)

let buffer_size (g : dgpu) = function
  | Buffer_id.Input -> g.dg_in
  | Buffer_id.Output -> g.dg_out
  | Buffer_id.Scratch -> g.dg_scratch

let semantic_checks st ~ctx ~root_pos ~num_ranks (gpus : dgpu array) =
  Array.iter
    (fun g ->
      let gctx = ("gpu", g.dg_pos) :: ctx in
      let ntbs = Array.length g.dg_tbs in
      let seen_send = Hashtbl.create 8 and seen_recv = Hashtbl.create 8 in
      Array.iter
        (fun tb ->
          let tctx = ("tb", tb.dt_pos) :: gctx in
          let tpos = tb.dt_pos in
          if tb.dt_chan < 0 then
            err st "range" ~pos:tpos ~ctx:tctx "<tb> has negative channel %d"
              tb.dt_chan;
          let peer what p =
            if p >= num_ranks then
              err st "range" ~pos:tpos ~ctx:tctx
                "<tb> %s peer %d is out of range (program has %d ranks)" what
                p num_ranks
            else if p >= 0 && p = g.dg_id then
              err st "range" ~pos:tpos ~ctx:tctx
                "<tb> %s peer %d is the gpu itself" what p
            else if p < -1 then
              err st "range" ~pos:tpos ~ctx:tctx
                "<tb> %s peer %d is negative (use -1 for none)" what p
          in
          peer "send" tb.dt_send;
          peer "recv" tb.dt_recv;
          (if tb.dt_send >= 0 then
             let key = (tb.dt_send, tb.dt_chan) in
             match Hashtbl.find_opt seen_send key with
             | Some (first : dtb) ->
                 err st "pairing" ~pos:tpos ~ctx:tctx
                   "two thread blocks send on connection %d->%d ch%d (first \
                    is tb %d at %s:%d:%d)"
                   g.dg_id tb.dt_send tb.dt_chan first.dt_id st.s_file
                   first.dt_pos.Xml.line first.dt_pos.Xml.col
             | None -> Hashtbl.add seen_send key tb);
          (if tb.dt_recv >= 0 then
             let key = (tb.dt_recv, tb.dt_chan) in
             match Hashtbl.find_opt seen_recv key with
             | Some (first : dtb) ->
                 err st "pairing" ~pos:tpos ~ctx:tctx
                   "two thread blocks receive on connection %d<-%d ch%d \
                    (first is tb %d at %s:%d:%d)"
                   g.dg_id tb.dt_recv tb.dt_chan first.dt_id st.s_file
                   first.dt_pos.Xml.line first.dt_pos.Xml.col
             | None -> Hashtbl.add seen_recv key tb);
          Array.iter
            (fun (ds : dstep) ->
              let sctx = ("step", ds.ds_pos) :: tctx in
              let spos = ds.ds_pos in
              if Instr.sends ds.ds_op && tb.dt_send < 0 then
                err st "pairing" ~pos:spos ~ctx:sctx
                  "step %d (%s) sends but its thread block has no send peer"
                  ds.ds_s (Instr.opcode_name ds.ds_op);
              if Instr.receives ds.ds_op && tb.dt_recv < 0 then
                err st "pairing" ~pos:spos ~ctx:sctx
                  "step %d (%s) receives but its thread block has no recv \
                   peer"
                  ds.ds_s (Instr.opcode_name ds.ds_op);
              let bound what = function
                | None -> ()
                | Some (buf, off) ->
                    let size = buffer_size g buf in
                    if size >= 0 && off + ds.ds_count > size then
                      err st "range" ~pos:spos ~ctx:sctx
                        "step %d %s [%s %d..%d] beyond the %d-chunk %s \
                         buffer of gpu %d"
                        ds.ds_s what (Buffer_id.name buf) off
                        (off + ds.ds_count - 1)
                        size (Buffer_id.long_name buf) g.dg_id
              in
              bound "reads" ds.ds_src;
              bound "writes" ds.ds_dst;
              List.iter
                (fun (dtb, dstep) ->
                  if dtb < 0 || dtb >= ntbs then
                    err st "range" ~pos:spos ~ctx:sctx
                      "step %d depends on unknown thread block %d (gpu %d \
                       has %d)"
                      ds.ds_s dtb g.dg_id ntbs
                  else if dtb = tb.dt_id then
                    err st "range" ~pos:spos ~ctx:sctx
                      "step %d has a same-tb dependency (ordering within a \
                       thread block is implicit)"
                      ds.ds_s
                  else begin
                    let target = g.dg_tbs.(dtb).dt_steps in
                    let tsteps = Array.length target in
                    if dstep < 0 || dstep >= tsteps then
                      err st "range" ~pos:spos ~ctx:sctx
                        "step %d depends on unknown step %d of thread block \
                         %d (which has %d)"
                        ds.ds_s dstep dtb tsteps
                    else
                      let tgt = target.(dstep) in
                      if not tgt.ds_has_dep then begin
                        warn st "repair" ~pos:tgt.ds_pos ~ctx:sctx
                          "step %d of tb %d is a dependency target but not \
                           marked hasdep; marking it"
                          dstep dtb;
                        tgt.ds_has_dep <- true
                      end
                  end)
                ds.ds_depends)
            tb.dt_steps)
        g.dg_tbs)
    gpus;
  (* Per-connection send and receive step counts must match. *)
  let sends = Hashtbl.create 32 and recvs = Hashtbl.create 32 in
  let bump tbl key =
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  Array.iter
    (fun g ->
      Array.iter
        (fun tb ->
          Array.iter
            (fun (ds : dstep) ->
              if Instr.sends ds.ds_op && tb.dt_send >= 0 then
                bump sends (g.dg_id, tb.dt_send, tb.dt_chan);
              if Instr.receives ds.ds_op && tb.dt_recv >= 0 then
                bump recvs (tb.dt_recv, g.dg_id, tb.dt_chan))
            tb.dt_steps)
        g.dg_tbs)
    gpus;
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      let m = Option.value ~default:0 (Hashtbl.find_opt recvs (src, dst, ch)) in
      if n <> m then
        err st "pairing" ~pos:root_pos ~ctx
          "connection %d->%d ch%d sends %d message(s) but receives %d" src
          dst ch n m)
    sends;
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      if not (Hashtbl.mem sends (src, dst, ch)) then
        err st "pairing" ~pos:root_pos ~ctx
          "connection %d->%d ch%d receives %d message(s) without any sends"
          src dst ch n)
    recvs

(* ------------------------------------------------------------------ *)
(* Building the certified IR                                           *)
(* ------------------------------------------------------------------ *)

let build_ir ~name ~collective ~proto (gpus : dgpu array) =
  let step_of g (ds : dstep) =
    let loc = function
      | None -> None
      | Some (buf, index) ->
          Some (Loc.make ~rank:g.dg_id ~buf ~index ~count:ds.ds_count)
    in
    {
      Ir.s = ds.ds_s;
      op = ds.ds_op;
      src = loc ds.ds_src;
      dst = loc ds.ds_dst;
      count = ds.ds_count;
      depends = ds.ds_depends;
      has_dep = ds.ds_has_dep;
    }
  in
  let tb_of g tb =
    {
      Ir.tb_id = tb.dt_id;
      send = tb.dt_send;
      recv = tb.dt_recv;
      chan = tb.dt_chan;
      steps = Array.map (step_of g) tb.dt_steps;
    }
  in
  let gpu_of g =
    {
      Ir.gpu_id = g.dg_id;
      input_chunks = g.dg_in;
      output_chunks = g.dg_out;
      scratch_chunks = g.dg_scratch;
      tbs = Array.map (tb_of g) g.dg_tbs;
    }
  in
  { Ir.name; collective; proto; gpus = Array.map gpu_of gpus }

(* ------------------------------------------------------------------ *)
(* Root decoding, once the whole document has been read                *)
(* ------------------------------------------------------------------ *)

let finish_root st (a : algo) (gpus : dgpu array) =
  let finish () = List.rev st.s_diags in
  let t = a.a_el and ctx = a.a_ctx and name = a.a_name and proto = a.a_proto in
  let root_pos = t.pos in
  let num_ranks =
    match (get t [ "nranks" ], get t [ "ngpus" ]) with
    | Some kv, None | None, Some kv -> (
        match int_of st ~ctx t kv with
        | Some n when n <= 0 ->
            err st "range" ~pos:kv.Xml.a_pos ~ctx "nonpositive rank count %d" n;
            None
        | x -> x)
    | Some a, Some b -> (
        match (int_of st ~ctx t a, int_of st ~ctx t b) with
        | Some x, Some y when x <> y ->
            err st "schema" ~pos:b.Xml.a_pos ~ctx
              "nranks=%d and ngpus=%d disagree" x y;
            None
        | x, _ -> x)
    | None, None ->
        warn st "default" ~pos:root_pos ~ctx
          "<algo> declares no nranks/ngpus; using the %d <gpu> element(s)"
          (Array.length gpus);
        Some (Array.length gpus)
  in
  let kind =
    match get t [ "coll"; "collective" ] with
    | None ->
        err st "schema" ~pos:root_pos ~ctx
          "<algo> is missing the required attribute coll";
        None
    | Some { Xml.a_value = "custom"; _ } -> (
        let cname =
          match get t [ "cname" ] with Some c -> c.Xml.a_value | None -> "custom"
        in
        match
          ( req_int st ~ctx t [ "in_chunks" ],
            req_int st ~ctx t [ "out_chunks" ] )
        with
        | Some i, Some o when i > 0 && o > 0 ->
            Some
              (Collective.Custom
                 {
                   Collective.custom_name = cname;
                   input_chunks = i;
                   output_chunks = o;
                   expected = (fun ~rank:_ ~index:_ -> None);
                   initial = None;
                 })
        | Some i, Some o ->
            err st "range" ~pos:root_pos ~ctx
              "custom collective with empty buffers (in=%d out=%d)" i o;
            None
        | _ -> None)
    | Some c -> (
        let v = c.Xml.a_value in
        match Collective.kind_of_name v with
        | None ->
            err st "schema" ~pos:c.Xml.a_pos ~ctx "unknown collective %S" v;
            None
        | Some kind when not (rooted kind) -> Some kind
        | Some kind -> (
            let root =
              match get t [ "root" ] with
              | None ->
                  warn st "default" ~pos:root_pos ~ctx
                    "rooted collective %S has no root attribute; assuming \
                     root 0"
                    v;
                  Some 0
              | Some r -> int_of st ~ctx t r
            in
            match root with
            | None -> None
            | Some r ->
                (match num_ranks with
                | Some n when r < 0 || r >= n ->
                    err st "range" ~pos:(attr_pos t "root") ~ctx
                      "root %d is out of range (%d ranks)" r n
                | _ -> ());
                Some (with_root kind r)))
  in
  let chunk_factor =
    match kind with
    | Some (Collective.Custom _) -> Some 1
    | _ -> (
        match (get t [ "chunk_factor" ], get t [ "nchunksperloop" ]) with
        | Some kv, _ -> (
            match int_of st ~ctx t kv with
            | Some n when n <= 0 ->
                err st "range" ~pos:kv.Xml.a_pos ~ctx
                  "nonpositive chunk_factor %d" n;
                None
            | x -> x)
        | None, Some kv -> (
            (* msccl-tools declares total chunks per loop; for
               collectives whose input is ranks-wide, that is
               chunk_factor * nranks. *)
            match (int_of st ~ctx t kv, kind, num_ranks) with
            | Some n, _, _ when n <= 0 ->
                err st "range" ~pos:kv.Xml.a_pos ~ctx
                  "nonpositive nchunksperloop %d" n;
                None
            | Some n, Some k, Some ranks when ranks > 0 ->
                let divisor =
                  match k with
                  | Collective.Reduce_scatter | Collective.Alltoall
                  | Collective.Scatter _ ->
                      ranks
                  | _ -> 1
                in
                if n mod divisor <> 0 then begin
                  err st "schema" ~pos:kv.Xml.a_pos ~ctx
                    "nchunksperloop %d is not divisible by the rank count %d"
                    n divisor;
                  None
                end
                else Some (n / divisor)
            | x, _, _ -> x)
        | None, None ->
            warn st "default" ~pos:root_pos ~ctx
              "<algo> declares no chunk_factor/nchunksperloop; assuming 1";
            Some 1)
  in
  let inplace =
    match (get t [ "inplace" ], get t [ "outofplace" ]) with
    | Some kv, _ -> bool_of st ~ctx t kv
    | None, Some kv -> Option.map not (bool_of st ~ctx t kv)
    | None, None ->
        warn st "default" ~pos:root_pos ~ctx
          "<algo> declares neither inplace nor outofplace; assuming \
           out-of-place";
        Some false
  in
  (* Ordering tolerance: match gpus/tbs/steps by declared id. *)
  order st ~ctx ~what:"gpu" ~id:(fun g -> g.dg_id) ~pos:(fun g -> g.dg_pos) gpus;
  Array.iter
    (fun g ->
      let gctx = ("gpu", g.dg_pos) :: ctx in
      order st ~ctx:gctx ~what:"tb"
        ~id:(fun tb -> tb.dt_id)
        ~pos:(fun tb -> tb.dt_pos)
        g.dg_tbs;
      Array.iter
        (fun tb ->
          order st
            ~ctx:(("tb", tb.dt_pos) :: gctx)
            ~what:"step"
            ~id:(fun s -> s.ds_s)
            ~pos:(fun s -> s.ds_pos)
            tb.dt_steps)
        g.dg_tbs)
    gpus;
  let ngpus = Array.length gpus in
  (match num_ranks with
  | Some n when ngpus > 0 && n <> ngpus ->
      err st "schema" ~pos:root_pos ~ctx
        "<algo> declares %d rank(s) but has %d <gpu> element(s)" n ngpus
  | _ -> ());
  if ngpus = 0 then
    err st "schema" ~pos:root_pos ~ctx "<algo> has no <gpu> elements";
  if failed st then Result.Error (finish ())
  else
    let num_ranks = Option.value ~default:ngpus num_ranks in
    let collective =
      match (kind, chunk_factor, inplace) with
      | Some kind, Some chunk_factor, Some inplace -> (
          try Some (Collective.make kind ~num_ranks ~chunk_factor ~inplace ())
          with Invalid_argument m ->
            err st "validate" ~pos:root_pos ~ctx "invalid collective: %s" m;
            None)
      | _ -> None
    in
    match (collective, proto) with
    | Some collective, Some proto -> (
        (* Resolve undeclared buffer sizes to the collective footprint
           and reject declared ones that cannot hold it (positioned
           pre-check of what Ir.validate would reject blindly). *)
        let need_in = Collective.input_buffer_size collective in
        let need_out = Collective.output_buffer_size collective in
        let gpus =
          Array.map
            (fun g ->
              let gctx = ("gpu", g.dg_pos) :: ctx in
              if g.dg_in >= 0 && g.dg_in < need_in then
                err st "range" ~pos:g.dg_pos ~ctx:gctx
                  "gpu %d declares %d input chunk(s) but the collective \
                   needs %d"
                  g.dg_id g.dg_in need_in;
              if g.dg_out >= 0 && g.dg_out < need_out then
                err st "range" ~pos:g.dg_pos ~ctx:gctx
                  "gpu %d declares %d output chunk(s) but the collective \
                   needs %d"
                  g.dg_id g.dg_out need_out;
              {
                g with
                dg_in = (if g.dg_in >= 0 then g.dg_in else need_in);
                dg_out = (if g.dg_out >= 0 then g.dg_out else need_out);
              })
            gpus
        in
        if failed st then Result.Error (finish ())
        else begin
          semantic_checks st ~ctx ~root_pos ~num_ranks gpus;
          if failed st then Result.Error (finish ())
          else
            let ir = build_ir ~name ~collective ~proto gpus in
            try
              Ir.validate ir;
              Result.Ok (ir, finish ())
            with Invalid_argument m ->
              err st "validate" ~pos:root_pos ~ctx "invalid program: %s" m;
              Result.Error (finish ())
        end)
    | _ -> Result.Error (finish ())

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Runs the decoder over the events [feed] emits; a parse error discards
   everything decoded so far and is the only diagnostic. *)
let decode ~file feed =
  let st = { s_file = file; s_diags = [] } in
  let d = { st; frames = []; skip = 0; root = None; gpus = [] } in
  match feed ~on_start:(on_start d) ~on_end:(on_end d) with
  | () -> (
      match d.root with
      | None -> Result.Error (List.rev st.s_diags)
      | Some a -> finish_root st a (Array.of_list (List.rev d.gpus)))
  | exception Xml.Parse_error e ->
      Result.Error
        [
          {
            d_severity = Error;
            d_rule = "parse";
            d_message = e.Xml.e_message;
            d_file = e.Xml.e_file;
            d_pos = e.Xml.e_pos;
            d_context = e.Xml.e_context;
          };
        ]

let of_string ?(file = "<string>") s = decode ~file (Xml.lex ~file s)

let of_tree ?(file = "<string>") t =
  let rec replay ~on_start ~on_end (t : Xml.tree) =
    on_start t.Xml.tag t.Xml.t_pos
      (List.map
         (fun (k, v) -> { Xml.a_name = k; a_value = v; a_pos = Xml.attr_pos t k })
         t.Xml.attrs);
    List.iter (replay ~on_start ~on_end) t.Xml.children;
    on_end ()
  in
  decode ~file (replay t)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string ~file:path s
  | exception Sys_error m ->
      Result.Error
        [
          {
            d_severity = Error;
            d_rule = "io";
            d_message = m;
            d_file = path;
            d_pos = Xml.no_pos;
            d_context = [];
          };
        ]

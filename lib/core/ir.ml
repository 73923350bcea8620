type step = {
  s : int;
  op : Instr.opcode;
  src : Loc.t option;
  dst : Loc.t option;
  count : int;
  depends : (int * int) list;
  has_dep : bool;
}

type tb = {
  tb_id : int;
  send : int;
  recv : int;
  chan : int;
  steps : step array;
}

type gpu = {
  gpu_id : int;
  input_chunks : int;
  output_chunks : int;
  scratch_chunks : int;
  tbs : tb array;
}

type t = {
  name : string;
  collective : Collective.t;
  proto : Msccl_topology.Protocol.t;
  gpus : gpu array;
}

let num_ranks t = Array.length t.gpus

let num_thread_blocks t =
  Array.fold_left (fun n g -> n + Array.length g.tbs) 0 t.gpus

let num_steps t =
  Array.fold_left
    (fun n g ->
      Array.fold_left (fun n tb -> n + Array.length tb.steps) n g.tbs)
    0 t.gpus

let max_thread_blocks_per_gpu t =
  Array.fold_left (fun m g -> max m (Array.length g.tbs)) 0 t.gpus

let num_channels t =
  1
  + Array.fold_left
      (fun m g -> Array.fold_left (fun m tb -> max m tb.chan) m g.tbs)
      0 t.gpus

let iter_steps t f =
  Array.iter
    (fun g -> Array.iter (fun tb -> Array.iter (fun st -> f g tb st) tb.steps) g.tbs)
    t.gpus

let with_proto t proto = { t with proto }

let fail fmt = Format.kasprintf invalid_arg fmt

let validate t =
  let ranks = num_ranks t in
  if ranks <> t.collective.Collective.num_ranks then
    fail "Ir: %d gpus but collective wants %d" ranks
      t.collective.Collective.num_ranks;
  Array.iteri
    (fun gi g ->
      if g.gpu_id <> gi then fail "Ir: gpu id mismatch";
      if g.input_chunks < Collective.input_buffer_size t.collective then
        fail "Ir: gpu %d input buffer too small" gi;
      if g.output_chunks < Collective.output_buffer_size t.collective then
        fail "Ir: gpu %d output buffer too small" gi;
      (* Each connection has exactly one owning thread block per side. *)
      let senders = Hashtbl.create 8 and receivers = Hashtbl.create 8 in
      Array.iteri
        (fun ti tb ->
          if tb.tb_id <> ti then fail "Ir: tb id mismatch on gpu %d" gi;
          if tb.chan < 0 then fail "Ir: negative channel";
          if tb.send >= ranks || tb.recv >= ranks then
            fail "Ir: peer out of range on gpu %d" gi;
          if tb.send = gi || tb.recv = gi then
            fail "Ir: gpu %d connected to itself" gi;
          if tb.send >= 0 then begin
            let key = (tb.send, tb.chan) in
            if Hashtbl.mem senders key then
              fail "Ir: two thread blocks send on connection %d->%d ch%d" gi
                tb.send tb.chan;
            Hashtbl.add senders key tb.tb_id
          end;
          if tb.recv >= 0 then begin
            let key = (tb.recv, tb.chan) in
            if Hashtbl.mem receivers key then
              fail "Ir: two thread blocks receive on connection %d<-%d ch%d"
                gi tb.recv tb.chan;
            Hashtbl.add receivers key tb.tb_id
          end;
          Array.iteri
            (fun si st ->
              if st.s <> si then fail "Ir: step index mismatch";
              if st.count <= 0 then fail "Ir: nonpositive count";
              if Instr.sends st.op && tb.send < 0 then
                fail "Ir: sending step in tb without send peer (gpu %d)" gi;
              if Instr.receives st.op && tb.recv < 0 then
                fail "Ir: receiving step in tb without recv peer (gpu %d)" gi;
              (match st.src with
              | Some l when l.Loc.rank <> gi ->
                  fail "Ir: step src on foreign rank"
              | Some _ | None -> ());
              (match st.dst with
              | Some l when l.Loc.rank <> gi ->
                  fail "Ir: step dst on foreign rank"
              | Some _ | None -> ());
              List.iter
                (fun (dtb, dstep) ->
                  if dtb < 0 || dtb >= Array.length g.tbs then
                    fail "Ir: dependency on unknown tb %d (gpu %d)" dtb gi;
                  if dstep < 0 || dstep >= Array.length g.tbs.(dtb).steps then
                    fail "Ir: dependency on unknown step";
                  if dtb = tb.tb_id then
                    fail "Ir: same-tb dependency should be implicit";
                  if not g.tbs.(dtb).steps.(dstep).has_dep then
                    fail "Ir: dependency target not marked has_dep")
                st.depends)
            tb.steps)
        g.tbs)
    t.gpus;
  (* Per-connection send and receive counts must match. *)
  let sends = Hashtbl.create 32 and recvs = Hashtbl.create 32 in
  iter_steps t (fun g tb st ->
      if Instr.sends st.op then begin
        let key = (g.gpu_id, tb.send, tb.chan) in
        Hashtbl.replace sends key
          (1 + Option.value ~default:0 (Hashtbl.find_opt sends key))
      end;
      if Instr.receives st.op then begin
        let key = (tb.recv, g.gpu_id, tb.chan) in
        Hashtbl.replace recvs key
          (1 + Option.value ~default:0 (Hashtbl.find_opt recvs key))
      end);
  Hashtbl.iter
    (fun (src, dst, ch) n ->
      let m = Option.value ~default:0 (Hashtbl.find_opt recvs (src, dst, ch)) in
      if n <> m then
        fail "Ir: connection %d->%d ch%d sends %d but receives %d" src dst ch
          n m)
    sends;
  Hashtbl.iter
    (fun (src, dst, ch) _ ->
      if not (Hashtbl.mem sends (src, dst, ch)) then
        fail "Ir: connection %d->%d ch%d receives without sends" src dst ch)
    recvs

type endpoint = {
  ep_rank : int;
  ep_tb : int;
  ep_step : int;
  ep_op : Instr.opcode;
  ep_count : int;
}

type count_mismatch = {
  cm_src : int;
  cm_dst : int;
  cm_chan : int;
  cm_message : int;
  cm_send : endpoint;
  cm_recv : endpoint;
}

let count_mismatches t =
  (* Connection -> its sending and receiving thread blocks, newest first
     (a valid IR has one of each; malformed ones keep every owner, in IR
     order, as the happens-before graph does). *)
  let conns = Hashtbl.create 64 in
  let owners key =
    match Hashtbl.find_opt conns key with
    | Some o -> o
    | None ->
        let o = (ref [], ref []) in
        Hashtbl.add conns key o;
        o
  in
  Array.iter
    (fun g ->
      Array.iter
        (fun tb ->
          if tb.send >= 0 then begin
            let senders, _ = owners (g.gpu_id, tb.send, tb.chan) in
            senders := (g.gpu_id, tb) :: !senders
          end;
          if tb.recv >= 0 then begin
            let _, receivers = owners (tb.recv, g.gpu_id, tb.chan) in
            receivers := (g.gpu_id, tb) :: !receivers
          end)
        g.tbs)
    t.gpus;
  (* The moving steps of a connection's owners, in IR order, one per
     call; nothing is kept beyond the current position. *)
  let cursor moves owners =
    let owners = ref (List.rev owners) and i = ref 0 in
    let rec next () =
      match !owners with
      | [] -> None
      | (rank, tb) :: rest ->
          if !i >= Array.length tb.steps then begin
            owners := rest;
            i := 0;
            next ()
          end
          else begin
            let st = tb.steps.(!i) in
            incr i;
            if moves st.op then Some (rank, tb, st) else next ()
          end
    in
    next
  in
  let endpoint (rank, tb, st) =
    {
      ep_rank = rank;
      ep_tb = tb.tb_id;
      ep_step = st.s;
      ep_op = st.op;
      ep_count = st.count;
    }
  in
  (* The k-th send on a connection delivers the k-th receive. *)
  Hashtbl.fold
    (fun (src, dst, chan) (senders, receivers) acc ->
      let next_send = cursor Instr.sends !senders in
      let next_recv = cursor Instr.receives !receivers in
      let rec pair k acc =
        match (next_send (), next_recv ()) with
        | Some ((_, _, s) as se), Some ((_, _, r) as re) ->
            pair (k + 1)
              (if s.count <> r.count then
                 {
                   cm_src = src;
                   cm_dst = dst;
                   cm_chan = chan;
                   cm_message = k;
                   cm_send = endpoint se;
                   cm_recv = endpoint re;
                 }
                 :: acc
               else acc)
        | _ -> acc
      in
      pair 0 acc)
    conns []
  |> List.sort compare

let pp_endpoint fmt e =
  Format.fprintf fmt "rank %d tb %d step %d (%s)" e.ep_rank e.ep_tb e.ep_step
    (Instr.opcode_name e.ep_op)

let pp_count_mismatch fmt m =
  Format.fprintf fmt
    "connection %d->%d ch%d, message %d: %a sends %d chunk(s) but %a \
     receives %d"
    m.cm_src m.cm_dst m.cm_chan m.cm_message pp_endpoint m.cm_send
    m.cm_send.ep_count pp_endpoint m.cm_recv m.cm_recv.ep_count

let equal_step (x : step) (y : step) =
  x.s = y.s && x.op = y.op && x.count = y.count && x.depends = y.depends
  && x.has_dep = y.has_dep
  && Option.equal Loc.equal x.src y.src
  && Option.equal Loc.equal x.dst y.dst

let equal_tb (x : tb) (y : tb) =
  x.tb_id = y.tb_id && x.send = y.send && x.recv = y.recv && x.chan = y.chan
  && Array.length x.steps = Array.length y.steps
  && Array.for_all2 equal_step x.steps y.steps

let equal_gpu (x : gpu) (y : gpu) =
  x.gpu_id = y.gpu_id
  && x.input_chunks = y.input_chunks
  && x.output_chunks = y.output_chunks
  && x.scratch_chunks = y.scratch_chunks
  && Array.length x.tbs = Array.length y.tbs
  && Array.for_all2 equal_tb x.tbs y.tbs

let equal a b =
  a.name = b.name && a.proto = b.proto
  && Collective.equal_shape a.collective b.collective
  && num_ranks a = num_ranks b
  && Array.for_all2 equal_gpu a.gpus b.gpus

let pp_loc_opt fmt = function
  | None -> Format.pp_print_string fmt "-"
  | Some l ->
      Format.fprintf fmt "%s[%d]" (Buffer_id.name l.Loc.buf) l.Loc.index

let pp fmt t =
  Format.fprintf fmt "@[<v>%s: %a proto=%a@," t.name Collective.pp
    t.collective Msccl_topology.Protocol.pp t.proto;
  Array.iter
    (fun g ->
      Format.fprintf fmt "gpu %d (i=%d o=%d s=%d):@," g.gpu_id g.input_chunks
        g.output_chunks g.scratch_chunks;
      Array.iter
        (fun tb ->
          Format.fprintf fmt "  tb %d send=%d recv=%d ch=%d@," tb.tb_id
            tb.send tb.recv tb.chan;
          Array.iter
            (fun st ->
              let deps_str =
                match st.depends with
                | [] -> ""
                | ds ->
                    " deps="
                    ^ String.concat ","
                        (List.map
                           (fun (tb, s) -> Printf.sprintf "(%d,%d)" tb s)
                           ds)
              in
              let dep_mark = if st.has_dep then " <dep>" else "" in
              Format.fprintf fmt "    %2d: %-4s src=%a dst=%a cnt=%d%s%s@,"
                st.s
                (Instr.opcode_name st.op)
                pp_loc_opt st.src pp_loc_opt st.dst st.count deps_str dep_mark)
            tb.steps)
        g.tbs)
    t.gpus;
  Format.fprintf fmt "@]"

let summary t =
  Printf.sprintf "%s: %d gpus, %d tbs, %d steps, %d channels" t.name
    (num_ranks t) (num_thread_blocks t) (num_steps t) (num_channels t)

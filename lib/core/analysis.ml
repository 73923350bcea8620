type connection = {
  conn_src : int;
  conn_dst : int;
  conn_chan : int;
  conn_messages : int;
  conn_chunks : int;
}

type link = {
  link_src : int;
  link_dst : int;
  link_channels : int;
  link_messages : int;
  link_chunks : int;
}

type t = {
  ranks : int;
  total_steps : int;
  total_thread_blocks : int;
  channels : int;
  critical_path : int;
  max_steps_per_tb : int;
  avg_steps_per_tb : float;
  fused_steps : int;
  reduction_steps : int;
  local_steps : int;
  connections : connection list;
  max_chunks_per_connection : int;
  links : link list;
  max_chunks_per_link : int;
  scratch_chunks_total : int;
}

let analyze ?hb (ir : Ir.t) =
  let conn_tbl = Hashtbl.create 32 in
  let fused = ref 0 and reductions = ref 0 and locals = ref 0 in
  let count_step msgs chunks (st : Ir.step) =
    (match st.Ir.op with
    | Instr.Recv_copy_send | Instr.Recv_reduce_send
    | Instr.Recv_reduce_copy_send ->
        incr fused
    | Instr.Send | Instr.Recv | Instr.Copy | Instr.Reduce
    | Instr.Recv_reduce_copy | Instr.Nop ->
        ());
    (match st.Ir.op with
    | Instr.Reduce | Instr.Recv_reduce_copy | Instr.Recv_reduce_send
    | Instr.Recv_reduce_copy_send ->
        incr reductions
    | Instr.Send | Instr.Recv | Instr.Copy | Instr.Recv_copy_send
    | Instr.Nop ->
        ());
    (match st.Ir.op with
    | Instr.Copy | Instr.Reduce -> incr locals
    | Instr.Send | Instr.Recv | Instr.Recv_reduce_copy
    | Instr.Recv_copy_send | Instr.Recv_reduce_send
    | Instr.Recv_reduce_copy_send | Instr.Nop ->
        ());
    if Instr.sends st.Ir.op then begin
      incr msgs;
      chunks := !chunks + st.Ir.count
    end
  in
  (* A thread block's sends all go on its one connection: total them
     per thread block, then per connection. *)
  Array.iter
    (fun (g : Ir.gpu) ->
      Array.iter
        (fun (tb : Ir.tb) ->
          let msgs = ref 0 and chunks = ref 0 in
          Array.iter (count_step msgs chunks) tb.Ir.steps;
          if !msgs > 0 then begin
            let key = (g.Ir.gpu_id, tb.Ir.send, tb.Ir.chan) in
            let m, c =
              Option.value ~default:(0, 0) (Hashtbl.find_opt conn_tbl key)
            in
            Hashtbl.replace conn_tbl key (m + !msgs, c + !chunks)
          end)
        g.Ir.tbs)
    ir.Ir.gpus;
  let connections =
    Hashtbl.fold
      (fun (src, dst, chan) (msgs, chunks) acc ->
        {
          conn_src = src;
          conn_dst = dst;
          conn_chan = chan;
          conn_messages = msgs;
          conn_chunks = chunks;
        }
        :: acc)
      conn_tbl []
    |> List.sort (fun a b ->
           match Int.compare b.conn_chunks a.conn_chunks with
           | 0 -> (
               match Int.compare a.conn_src b.conn_src with
               | 0 -> (
                   match Int.compare a.conn_dst b.conn_dst with
                   | 0 -> Int.compare a.conn_chan b.conn_chan
                   | c -> c)
               | c -> c)
           | c -> c)
  in
  (* The same traffic aggregated per physical (src, dst) link: many
     channels between one pair of ranks share the same wires, so
     channel-level counts alone hide link hotspots. *)
  let link_tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let key = (c.conn_src, c.conn_dst) in
      let chans, msgs, chunks =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt link_tbl key)
      in
      Hashtbl.replace link_tbl key
        (chans + 1, msgs + c.conn_messages, chunks + c.conn_chunks))
    connections;
  let links =
    Hashtbl.fold
      (fun (src, dst) (chans, msgs, chunks) acc ->
        {
          link_src = src;
          link_dst = dst;
          link_channels = chans;
          link_messages = msgs;
          link_chunks = chunks;
        }
        :: acc)
      link_tbl []
    |> List.sort (fun a b ->
           match Int.compare b.link_chunks a.link_chunks with
           | 0 -> (
               match Int.compare a.link_src b.link_src with
               | 0 -> Int.compare a.link_dst b.link_dst
               | c -> c)
           | c -> c)
  in
  let tbs = Ir.num_thread_blocks ir in
  let steps = Ir.num_steps ir in
  let max_steps =
    Array.fold_left
      (fun m (g : Ir.gpu) ->
        Array.fold_left (fun m tb -> max m (Array.length tb.Ir.steps)) m g.Ir.tbs)
      0 ir.Ir.gpus
  in
  {
    ranks = Ir.num_ranks ir;
    total_steps = steps;
    total_thread_blocks = tbs;
    channels = Ir.num_channels ir;
    (* Longest path over the same waiting graph the deadlock checker
       uses, minus the FIFO back-pressure edges (which bound buffering,
       not data flow). *)
    critical_path =
      Hbgraph.longest_path
        (match hb with Some hb -> hb | None -> Hbgraph.build ir);
    max_steps_per_tb = max_steps;
    avg_steps_per_tb =
      (if tbs = 0 then 0. else float_of_int steps /. float_of_int tbs);
    fused_steps = !fused;
    reduction_steps = !reductions;
    local_steps = !locals;
    connections;
    max_chunks_per_connection =
      List.fold_left (fun m c -> max m c.conn_chunks) 0 connections;
    links;
    max_chunks_per_link =
      List.fold_left (fun m l -> max m l.link_chunks) 0 links;
    scratch_chunks_total =
      Array.fold_left (fun acc g -> acc + g.Ir.scratch_chunks) 0 ir.Ir.gpus;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%d rank(s), %d thread block(s), %d step(s), %d channel(s)@,\
     critical path: %d step(s)@,\
     steps per thread block: max %d, avg %.1f@,\
     fused: %d, reductions: %d, local: %d@,\
     connections: %d (busiest carries %d chunk(s))@,"
    t.ranks t.total_thread_blocks t.total_steps t.channels t.critical_path
    t.max_steps_per_tb t.avg_steps_per_tb t.fused_steps t.reduction_steps
    t.local_steps
    (List.length t.connections)
    t.max_chunks_per_connection;
  (match t.links with
  | [] -> Format.fprintf fmt "links: none@,"
  | busiest :: _ ->
      Format.fprintf fmt
        "links: %d physical (busiest %d->%d carries %d chunk(s) over %d \
         channel(s))@,"
        (List.length t.links) busiest.link_src busiest.link_dst
        busiest.link_chunks busiest.link_channels);
  Format.fprintf fmt "scratch: %d chunk(s) total@]" t.scratch_chunks_total

(* Replicated (symmetry-aware) compilation.

   Given a Sym_hint.Ring_shift hint, the full program is the union of P
   slices, slice k = pi^k(slice 0). Instead of tracing and scheduling all
   P slices (O(P^2) instructions for ring-like programs), we:

   1. trace, lower and fuse only slice 0 (O(P) instructions, spread over
      all ranks);
   2. *lift* every slice-0 instruction to the representative rank 0: the
      instruction of rank r in slice 0 is, under pi^(-r), an instruction
      of rank 0 in slice (-r) — rank 0's full program is exactly the
      lifted multiset;
   3. run the ordinary scheduling algorithm (same priorities, same FIFO
      back-pressure) over the lifted instructions, with connection FIFO
      states keyed by the *orbit* of a connection ((dst - src) mod P,
      channel) instead of the connection itself. A lifted receive's
      matching send lives on a peer rank, but the peer's program is a
      rotation of rank 0's, so the peer's k-th send on the orbit is rank
      0's k-th send on the same orbit — FIFO matching against rank 0's
      own sends reproduces the global schedule;
   4. instantiate gpus 1..P-1 from gpu 0 by index arithmetic (peers by
      +g mod P, chunk indices by the hint's per-slice deltas, thread
      blocks re-sorted exactly like the scheduler sorts them).

   The construction is unsound if the hint lies (the slices are not
   dep-closed, or the deltas are wrong) or if the global scheduler would
   have interleaved orbit members inconsistently. Both are caught
   downstream: certification (Symmetry.verify_candidate) and the
   differential mode assert the result; any failure here raises
   [Fallback], which callers translate into the full pipeline. *)

exception Fallback of string

let bail fmt = Format.kasprintf (fun s -> raise (Fallback s)) fmt

type result = {
  r_ir : Ir.t Lazy.t;
  r_rep : Ir.gpu;  (* the representative rank program (gpu 0) *)
  r_gpu : int -> Ir.gpu;  (* materialize one rank on demand *)
  r_perm : int array;  (* the hint's claimed rank permutation *)
  r_num_ranks : int;
  r_proto : Msccl_topology.Protocol.t;
  r_chunk_ops : int;  (* slice-0 chunk ops actually traced *)
  r_instrs_before_fusion : int;
  r_fusion : Fusion.stats;
  r_instrs_after_fusion : int;
}

(* gcd / modular inverse for the shift arithmetic. *)
let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let mod_inv s p =
  (* s and p coprime; extended Euclid. *)
  let rec go r0 r1 t0 t1 = if r1 = 0 then t0 else go r1 (r0 mod r1) t1 (t0 - (r0 / r1 * t1)) in
  ((go p s 0 1 mod p) + p) mod p

type lifted = {
  base : Instr.t;
  l_send_peer : int;  (* -1 = none *)
  l_recv_peer : int;
  l_src : Loc.t option;
  l_dst : Loc.t option;
}

(* Mirror of Schedule's tb_build, single rank. *)
type tb_build = {
  mutable send_conn : (int * int) option;  (* (peer, ch) *)
  mutable recv_conn : (int * int) option;
  mutable tb_chan : int;
  mutable steps_rev : int list;  (* base ids *)
  mutable nsteps : int;
  mutable last_global : int;
  mutable final_id : int;
}

let new_tb () =
  {
    send_conn = None;
    recv_conn = None;
    tb_chan = 0;
    steps_rev = [];
    nsteps = 0;
    last_global = -1;
    final_id = -1;
  }

type conn_state = {
  send_at : (int, int) Hashtbl.t;
  mutable nsends : int;
  mutable next_recv : int;
  deferred : (int, int) Hashtbl.t;  (* send id -> waiting recv id *)
  send_queue : int Queue.t;
}

let run ?(proto = Msccl_topology.Protocol.Simple) ?slots ?name
    ~(hint : Sym_hint.t) ?(fuse = true) coll =
  let p = coll.Collective.num_ranks in
  let shift =
    match hint.Sym_hint.kind with
    | Sym_hint.Ring_shift s ->
        let s = ((s mod p) + p) mod p in
        if s = 0 then bail "hint shift is the identity";
        if gcd s p <> 1 then
          bail "hint shift %d not coprime with %d ranks" s p;
        s
    | Sym_hint.Block_shift _ -> bail "block-shift hints have no fast path"
  in
  let s_inv = mod_inv shift p in
  (* 1. Trace / lower / fuse the representative slice. *)
  let dag0 =
    try Program.trace ?name ~sparse:true coll hint.Sym_hint.trace_rep
    with Program.Trace_error m -> bail "representative slice: %s" m
  in
  let idag = Instr_dag.of_chunk_dag dag0 in
  let before = Instr_dag.num_live idag in
  let fusion =
    if fuse then Fusion.fuse idag else { Fusion.rcs = 0; rrcs = 0; rrs = 0 }
  in
  let after = Instr_dag.num_live idag in
  let b = Instr_dag.compact idag in
  Instr_dag.validate b;
  Schedule.assign_channels b;
  let instrs = b.Instr_dag.instrs in
  let n = Array.length instrs in
  if n = 0 then bail "representative slice is empty";
  (* 2. Lift to rank 0. *)
  let m_in = Collective.input_buffer_size coll in
  let m_out = Collective.output_buffer_size coll in
  let m_scr = hint.Sym_hint.scratch_chunks in
  let lift_loc k (l : Loc.t) =
    let d, m =
      match l.Loc.buf with
      | Buffer_id.Input -> (hint.Sym_hint.d_input, m_in)
      | Buffer_id.Output -> (hint.Sym_hint.d_output, m_out)
      | Buffer_id.Scratch -> (hint.Sym_hint.d_scratch, m_scr)
    in
    if m <= 0 then bail "hint declares no %s buffer" (Buffer_id.name l.Loc.buf);
    let index = (l.Loc.index + (k * d)) mod m in
    if index + l.Loc.count > m then
      bail "slice footprint wraps the %s buffer" (Buffer_id.name l.Loc.buf);
    Loc.make ~rank:0 ~buf:l.Loc.buf ~index ~count:l.Loc.count
  in
  let lifted =
    Array.map
      (fun (i : Instr.t) ->
        let r = i.Instr.rank in
        let j = (p - r) mod p in
        (* translation amount in ranks *)
        let k = j * s_inv mod p in
        (* translation amount in slices *)
        let peer = function
          | Some q -> (q + j) mod p
          | None -> -1
        in
        {
          base = i;
          l_send_peer = (if Instr.sends i.Instr.op then peer i.Instr.send_peer else -1);
          l_recv_peer =
            (if Instr.receives i.Instr.op then peer i.Instr.recv_peer else -1);
          l_src = Option.map (lift_loc k) i.Instr.src;
          l_dst = Option.map (lift_loc k) i.Instr.dst;
        })
      instrs
  in
  (* 3a. Thread-block formation over the lifted (rank-0) endpoints —
     mirrors Schedule.build_tbs restricted to one rank. *)
  let chan_of (i : Instr.t) = match i.Instr.ch with Some c -> c | None -> 0 in
  let item_ids : (int * int * int, int) Hashtbl.t = Hashtbl.create 16 in
  (* key: (dir 0=snd 1=rcv, peer, ch) *)
  let item_count = ref 0 in
  let item_of ep =
    match Hashtbl.find_opt item_ids ep with
    | Some id -> id
    | None ->
        let id = !item_count in
        incr item_count;
        Hashtbl.add item_ids ep id;
        id
  in
  Array.iter
    (fun l ->
      if l.base.Instr.alive then begin
        let ch = chan_of l.base in
        if l.l_send_peer >= 0 then ignore (item_of (0, l.l_send_peer, ch));
        if l.l_recv_peer >= 0 then ignore (item_of (1, l.l_recv_peer, ch))
      end)
    lifted;
  let uf = Union_find.create !item_count in
  Array.iter
    (fun l ->
      if l.base.Instr.alive && l.l_send_peer >= 0 && l.l_recv_peer >= 0 then
        let ch = chan_of l.base in
        Union_find.union uf
          (item_of (0, l.l_send_peer, ch))
          (item_of (1, l.l_recv_peer, ch)))
    lifted;
  let groups : (int, tb_build) Hashtbl.t = Hashtbl.create 16 in
  let tb_of_group root =
    match Hashtbl.find_opt groups root with
    | Some tb -> tb
    | None ->
        let tb = new_tb () in
        Hashtbl.add groups root tb;
        tb
  in
  Hashtbl.iter
    (fun (dir, peer, ch) item ->
      let root = Union_find.find uf item in
      let tb = tb_of_group root in
      tb.tb_chan <- ch;
      if dir = 0 then begin
        (match tb.send_conn with
        | Some (q, c) when (q, c) <> (peer, ch) ->
            bail "two send connections in one thread block"
        | Some _ | None -> ());
        tb.send_conn <- Some (peer, ch)
      end
      else begin
        (match tb.recv_conn with
        | Some (q, c) when (q, c) <> (peer, ch) ->
            bail "two receive connections in one thread block"
        | Some _ | None -> ());
        tb.recv_conn <- Some (peer, ch)
      end)
    item_ids;
  (* Pair send-only with receive-only groups per channel, deterministic by
     peer — same rule as the full scheduler. *)
  let merged_into : (int, tb_build) Hashtbl.t = Hashtbl.create 8 in
  let send_only = Hashtbl.create 4 and recv_only = Hashtbl.create 4 in
  Hashtbl.iter
    (fun root (tb : tb_build) ->
      match (tb.send_conn, tb.recv_conn) with
      | Some (_, ch), None ->
          Hashtbl.replace send_only ch
            ((root, tb) :: Option.value ~default:[] (Hashtbl.find_opt send_only ch))
      | None, Some (_, ch) ->
          Hashtbl.replace recv_only ch
            ((root, tb) :: Option.value ~default:[] (Hashtbl.find_opt recv_only ch))
      | Some _, Some _ | None, None -> ())
    groups;
  Hashtbl.iter
    (fun ch senders ->
      match Hashtbl.find_opt recv_only ch with
      | None -> ()
      | Some receivers ->
          let by_conn sel (r1, t1) (r2, t2) = compare (sel t1, r1) (sel t2, r2) in
          let senders = List.sort (by_conn (fun t -> t.send_conn)) senders in
          let receivers = List.sort (by_conn (fun t -> t.recv_conn)) receivers in
          let rec pair ss rs =
            match (ss, rs) with
            | (sroot, stb) :: ss', (_, rtb) :: rs' ->
                rtb.send_conn <- stb.send_conn;
                Hashtbl.replace merged_into sroot rtb;
                Hashtbl.remove groups sroot;
                pair ss' rs'
            | [], _ | _, [] -> ()
          in
          pair senders receivers)
    send_only;
  let tb_of_instr : (int, tb_build) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun l ->
      if l.base.Instr.alive then begin
        let ch = chan_of l.base in
        let ep =
          if l.l_send_peer >= 0 then Some (0, l.l_send_peer, ch)
          else if l.l_recv_peer >= 0 then Some (1, l.l_recv_peer, ch)
          else None
        in
        match ep with
        | None -> ()
        | Some ep ->
            let root = Union_find.find uf (item_of ep) in
            let tb =
              match Hashtbl.find_opt merged_into root with
              | Some tb -> tb
              | None -> tb_of_group root
            in
            Hashtbl.add tb_of_instr l.base.Instr.id tb
      end)
    lifted;
  let rank0_tbs =
    ref
      (Hashtbl.fold (fun _ tb acc -> tb :: acc) groups []
      |> List.sort (fun a b ->
             compare
               (a.tb_chan, a.send_conn, a.recv_conn)
               (b.tb_chan, b.send_conn, b.recv_conn)))
  in
  (* 3b. Global topological assignment over the lifted instructions with
     orbit-keyed connection FIFOs. *)
  let slots =
    match slots with
    | Some s -> s
    | None -> Msccl_topology.Protocol.num_slots proto
  in
  if slots < 1 then bail "need at least one FIFO slot";
  let depth, rdepth = Instr_dag.depths b in
  let priority id =
    let nf = float_of_int (n + 1) in
    (float_of_int depth.(id) *. nf) +. (nf -. float_of_int rdepth.(id))
  in
  let succ_off, succ_tgt = Instr_dag.successors_csr b in
  let indeg = Array.make n 0 in
  Array.iter
    (fun (i : Instr.t) ->
      indeg.(i.Instr.id) <-
        List.length i.Instr.deps
        + match i.Instr.comm_pred with Some _ -> 1 | None -> 0)
    instrs;
  let heap = Msccl_sim.Pqueue.create () in
  Array.iter
    (fun (i : Instr.t) ->
      if indeg.(i.Instr.id) = 0 then
        Msccl_sim.Pqueue.add heap ~priority:(priority i.Instr.id) i.Instr.id)
    instrs;
  let conns : (int, conn_state) Hashtbl.t = Hashtbl.create 32 in
  let conn_of ~delta ~ch =
    let key = (ch * p) + delta in
    match Hashtbl.find_opt conns key with
    | Some c -> c
    | None ->
        let c =
          {
            send_at = Hashtbl.create 8;
            nsends = 0;
            next_recv = 0;
            deferred = Hashtbl.create 4;
            send_queue = Queue.create ();
          }
        in
        Hashtbl.add conns key c;
        c
  in
  let instr_tb : tb_build option array = Array.make n None in
  let instr_step = Array.make n (-1) in
  let local_tb = ref None in
  let assigned = ref 0 in
  let global = ref 0 in
  let pending = Queue.create () in
  let affinity_tb (i : Instr.t) =
    let pick best id =
      match instr_tb.(id) with
      | Some tb ->
          let d = instrs.(id) in
          let score =
            ((if Instr.receives d.Instr.op then 1 else 0), depth.(id), -id)
          in
          (match best with
          | Some (bscore, _) when bscore >= score -> best
          | Some _ | None -> Some (score, tb))
      | None -> best
    in
    match List.fold_left pick None i.Instr.deps with
    | Some (_, tb) -> Some tb
    | None -> None
  in
  let pick_local_tb (i : Instr.t) =
    match !rank0_tbs with
    | [] -> (
        match !local_tb with
        | Some tb -> tb
        | None ->
            let tb = new_tb () in
            local_tb := Some tb;
            rank0_tbs := [ tb ];
            tb)
    | tbs -> (
        match affinity_tb i with
        | Some tb -> tb
        | None ->
            List.fold_left
              (fun best tb ->
                if tb.last_global < best.last_global then tb else best)
              (List.hd tbs) tbs)
  in
  let recv_delta l = (p - l.l_recv_peer) mod p in
  let try_assign id =
    let l = lifted.(id) in
    let i = l.base in
    let ch = Option.get i.Instr.ch in
    let recv_ready =
      if l.l_recv_peer >= 0 then begin
        let c = conn_of ~delta:(recv_delta l) ~ch in
        let sender = Option.get i.Instr.comm_pred in
        if c.next_recv < c.nsends && Hashtbl.find c.send_at c.next_recv = sender
        then true
        else begin
          Hashtbl.replace c.deferred sender id;
          false
        end
      end
      else true
    in
    let ready =
      recv_ready
      &&
      if l.l_send_peer >= 0 then begin
        let c = conn_of ~delta:l.l_send_peer ~ch in
        if c.nsends - c.next_recv < slots then true
        else begin
          Queue.add id c.send_queue;
          false
        end
      end
      else true
    in
    if ready then begin
      let tb =
        match Hashtbl.find_opt tb_of_instr id with
        | Some tb -> tb
        | None -> pick_local_tb i
      in
      instr_tb.(id) <- Some tb;
      instr_step.(id) <- tb.nsteps;
      tb.nsteps <- tb.nsteps + 1;
      tb.steps_rev <- id :: tb.steps_rev;
      tb.last_global <- !global;
      incr global;
      incr assigned;
      let wake_head_recv c =
        if c.next_recv < c.nsends then
          let head = Hashtbl.find c.send_at c.next_recv in
          match Hashtbl.find_opt c.deferred head with
          | Some r ->
              Hashtbl.remove c.deferred head;
              Queue.add r pending
          | None -> ()
      in
      if l.l_recv_peer >= 0 then begin
        let c = conn_of ~delta:(recv_delta l) ~ch in
        c.next_recv <- c.next_recv + 1;
        wake_head_recv c;
        if (not (Queue.is_empty c.send_queue)) && c.nsends - c.next_recv < slots
        then Queue.add (Queue.pop c.send_queue) pending
      end;
      if l.l_send_peer >= 0 then begin
        let c = conn_of ~delta:l.l_send_peer ~ch in
        Hashtbl.add c.send_at c.nsends id;
        c.nsends <- c.nsends + 1;
        wake_head_recv c
      end;
      for k = succ_off.(id) to succ_off.(id + 1) - 1 do
        let s = succ_tgt.(k) in
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then
          Msccl_sim.Pqueue.add heap ~priority:(priority s) s
      done
    end
  in
  let rec drive () =
    if not (Queue.is_empty pending) then begin
      try_assign (Queue.pop pending);
      drive ()
    end
    else if not (Msccl_sim.Pqueue.is_empty heap) then begin
      try_assign (Msccl_sim.Pqueue.pop_min heap);
      drive ()
    end
  in
  drive ();
  if !assigned <> n then
    bail "quotient schedule deadlocked (%d of %d placed)" !assigned n;
  (* 3c. Emit the representative gpu. *)
  List.iteri (fun idx tb -> tb.final_id <- idx) !rank0_tbs;
  let has_dep = Array.make n false in
  let depends_of (i : Instr.t) =
    let tb = Option.get instr_tb.(i.Instr.id) in
    let per_tb = ref [] in
    List.iter
      (fun d ->
        let dtb = Option.get instr_tb.(d) in
        if dtb != tb then begin
          let key = dtb.final_id in
          let step = instr_step.(d) in
          let rec upsert = function
            | [] -> [ (key, (step, d)) ]
            | ((k, (prev_step, _)) as e) :: rest ->
                if k = key then
                  if step > prev_step then (k, (step, d)) :: rest else e :: rest
                else e :: upsert rest
          in
          per_tb := upsert !per_tb
        end)
      i.Instr.deps;
    List.map (fun (tbid, (step, d)) -> ((tbid, step), d)) !per_tb
    |> List.sort compare
  in
  let gpu0_tbs =
    List.map
      (fun tb ->
        let ids = Array.of_list (List.rev tb.steps_rev) in
        let steps =
          Array.mapi
            (fun si id ->
              let l = lifted.(id) in
              let i = l.base in
              let depends = depends_of i in
              List.iter (fun (_, d) -> has_dep.(d) <- true) depends;
              {
                Ir.s = si;
                op = i.Instr.op;
                src = l.l_src;
                dst = l.l_dst;
                count = i.Instr.count;
                depends = List.map fst depends;
                has_dep = false;
              })
            ids
        in
        let peer = function Some (q, _) -> q | None -> -1 in
        {
          Ir.tb_id = tb.final_id;
          send = peer tb.send_conn;
          recv = peer tb.recv_conn;
          chan = tb.tb_chan;
          steps;
        })
      !rank0_tbs
    |> Array.of_list
  in
  (* Second pass: mark has_dep on targeted steps. *)
  Array.iteri
    (fun id flagged ->
      if flagged then begin
        let tb = Option.get instr_tb.(id) in
        let old = gpu0_tbs.(tb.final_id).Ir.steps.(instr_step.(id)) in
        gpu0_tbs.(tb.final_id).Ir.steps.(instr_step.(id)) <-
          { old with Ir.has_dep = true }
      end)
    has_dep;
  let gpu0 =
    {
      Ir.gpu_id = 0;
      input_chunks = Collective.input_buffer_size coll;
      output_chunks = Collective.output_buffer_size coll;
      scratch_chunks = hint.Sym_hint.scratch_chunks;
      tbs = gpu0_tbs;
    }
  in
  (* 4. Instantiate gpus 1..P-1 by index arithmetic. *)
  let translate_gpu g =
    let k = g * s_inv mod p in
    let peer q = if q < 0 then -1 else (q + g) mod p in
    let move_loc (l : Loc.t) =
      let d, m =
        match l.Loc.buf with
        | Buffer_id.Input -> (hint.Sym_hint.d_input, m_in)
        | Buffer_id.Output -> (hint.Sym_hint.d_output, m_out)
        | Buffer_id.Scratch -> (hint.Sym_hint.d_scratch, m_scr)
      in
      let index = (l.Loc.index + (k * d)) mod m in
      if index + l.Loc.count > m then
        bail "instance footprint wraps the %s buffer" (Buffer_id.name l.Loc.buf);
      Loc.make ~rank:g ~buf:l.Loc.buf ~index ~count:l.Loc.count
    in
    (* Translate connections and re-sort thread blocks exactly like the
       scheduler does (channel, then send conn, then recv conn, absolute
       peer ranks) — the per-rank block numbering is not shift-invariant. *)
    let conn q ch = if q < 0 then None else Some (peer q, ch) in
    let keyed =
      Array.mapi
        (fun old_id (tb : Ir.tb) ->
          ((tb.Ir.chan, conn tb.Ir.send tb.Ir.chan, conn tb.Ir.recv tb.Ir.chan),
           old_id))
        gpu0_tbs
    in
    Array.sort compare keyed;
    let sigma = Array.make (Array.length gpu0_tbs) (-1) in
    Array.iteri (fun new_id (_, old_id) -> sigma.(old_id) <- new_id) keyed;
    let tbs =
      Array.map
        (fun (_, old_id) ->
          let tb = gpu0_tbs.(old_id) in
          {
            Ir.tb_id = sigma.(old_id);
            send = peer tb.Ir.send;
            recv = peer tb.Ir.recv;
            chan = tb.Ir.chan;
            steps =
              Array.map
                (fun (st : Ir.step) ->
                  {
                    st with
                    Ir.src = Option.map move_loc st.Ir.src;
                    dst = Option.map move_loc st.Ir.dst;
                    depends =
                      List.map (fun (dtb, ds) -> (sigma.(dtb), ds)) st.Ir.depends
                      |> List.sort compare;
                  })
                tb.Ir.steps;
          })
        keyed
    in
    {
      Ir.gpu_id = g;
      input_chunks = gpu0.Ir.input_chunks;
      output_chunks = gpu0.Ir.output_chunks;
      scratch_chunks = gpu0.Ir.scratch_chunks;
      tbs;
    }
  in
  (* Translation never wraps a span: counts of 1 always fit, and wider
     spans must stay aligned to strides of the per-slice delta. Checked
     here, at construction, so the lazy instantiation below cannot fail. *)
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iter
        (fun (st : Ir.step) ->
          let check = function
            | None -> ()
            | Some (l : Loc.t) ->
                if l.Loc.count > 1 then begin
                  let d, m =
                    match l.Loc.buf with
                    | Buffer_id.Input -> (hint.Sym_hint.d_input, m_in)
                    | Buffer_id.Output -> (hint.Sym_hint.d_output, m_out)
                    | Buffer_id.Scratch -> (hint.Sym_hint.d_scratch, m_scr)
                  in
                  if
                    l.Loc.index mod l.Loc.count <> 0
                    || d mod l.Loc.count <> 0
                    || m mod l.Loc.count <> 0
                  then
                    bail "instance footprint may wrap the %s buffer"
                      (Buffer_id.long_name l.Loc.buf)
                end
          in
          check st.Ir.src;
          check st.Ir.dst)
        tb.Ir.steps)
    gpu0_tbs;
  let ir =
    lazy
      {
        Ir.name = dag0.Chunk_dag.name;
        collective = coll;
        proto;
        gpus =
          Array.init p (fun g -> if g = 0 then gpu0 else translate_gpu g);
      }
  in
  (* Cheap structural sanity on the representative (the full Ir.validate is
     O(total steps) and the instances are images of gpu 0 by construction;
     certification and the differential mode guard the rest). *)
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iteri
        (fun si (st : Ir.step) ->
          if st.Ir.s <> si then bail "rep: step index mismatch";
          List.iter
            (fun (dtb, ds) ->
              if dtb < 0 || dtb >= Array.length gpu0_tbs then
                bail "rep: dependency on unknown tb";
              if ds < 0 || ds >= Array.length gpu0_tbs.(dtb).Ir.steps then
                bail "rep: dependency on unknown step";
              if not gpu0_tbs.(dtb).Ir.steps.(ds).Ir.has_dep then
                bail "rep: dependency target not marked")
            st.Ir.depends)
        tb.Ir.steps)
    gpu0_tbs;
  {
    r_ir = ir;
    r_rep = gpu0;
    r_gpu = (fun g -> if g = 0 then gpu0 else translate_gpu g);
    r_perm = Sym_hint.perm hint ~num_ranks:p;
    r_num_ranks = p;
    r_proto = proto;
    r_chunk_ops = Chunk_dag.num_nodes dag0;
    r_instrs_before_fusion = before;
    r_fusion = fusion;
    r_instrs_after_fusion = after;
  }

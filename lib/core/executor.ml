exception Exec_error of string

let error fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

module type VALUE = sig
  type v

  val reduce : v -> v -> v
  val copy : v -> v
end

module type S = sig
  type v

  type state

  val run :
    ?slots:int ->
    ?on_deliver:
      (state ->
      src:int * int * int ->
      dst:int * int * int ->
      op:Instr.opcode ->
      payload:v array ->
      unit) ->
    ?on_write:
      (state -> writer:int * int * int -> loc:Loc.t -> vals:v array -> unit) ->
    init:(rank:int -> index:int -> v option) ->
    Ir.t ->
    state

  val input : state -> rank:int -> v option array
  val output : state -> rank:int -> v option array
  val scratch : state -> rank:int -> v option array

  val steps_executed : state -> int
end

module Make (V : VALUE) = struct
  type v = V.v

  type rank_buffers = {
    b_input : v option array;
    b_output : v option array;  (* == b_input when in-place *)
    b_scratch : v option array;
  }

  type state = {
    buffers : rank_buffers array;
    mutable executed : int;
  }

  (* A message in a connection FIFO, with the step that sent it. *)
  type message = {
    payload : v array;
    from_gpu : int;
    from_tb : int;
    from_step : int;
  }

  let input st ~rank = st.buffers.(rank).b_input
  let output st ~rank = st.buffers.(rank).b_output
  let scratch st ~rank = st.buffers.(rank).b_scratch
  let steps_executed st = st.executed

  let buffer_of st ~inplace (l : Loc.t) =
    let b = st.buffers.(l.Loc.rank) in
    match l.Loc.buf with
    | Buffer_id.Input -> b.b_input
    | Buffer_id.Output -> if inplace then b.b_input else b.b_output
    | Buffer_id.Scratch -> b.b_scratch

  (* [ctx g tb d] names the executing instruction — "rank R tb T step S
     (op)" — so a failure in a large fuzzed or shrunk IR is diagnosable
     without a debugger. Only the error paths build it. *)
  let ctx (g : Ir.gpu) (tb : Ir.tb) d =
    Printf.sprintf "rank %d tb %d step %d (%s)" g.Ir.gpu_id tb.Ir.tb_id d
      (Instr.opcode_name tb.Ir.steps.(d).Ir.op)

  (* Slot [k] of loc [l]'s span, which must hold a value. *)
  let slot arr g tb d (l : Loc.t) k =
    let idx = l.Loc.index + k in
    if idx >= Array.length arr then
      error "%s: read past end of %s buffer at %a" (ctx g tb d)
        (Buffer_id.long_name l.Loc.buf) Loc.pp l;
    match arr.(idx) with
    | Some v -> v
    | None ->
        error "%s: reading uninitialized chunk at rank %d %s[%d]" (ctx g tb d)
          l.Loc.rank
          (Buffer_id.long_name l.Loc.buf) idx

  let read st ~inplace g tb d (l : Loc.t) =
    Array.init l.Loc.count (slot (buffer_of st ~inplace l) g tb d l)

  let rec deps_met sem = function
    | [] -> true
    | (dtb, dstep) :: rest -> sem.(dtb) > dstep && deps_met sem rest

  let run ?slots ?on_deliver ?on_write ~init (ir : Ir.t) =
    let slots =
      match slots with
      | Some s -> s
      | None -> Msccl_topology.Protocol.num_slots ir.Ir.proto
    in
    if slots < 1 then error "need at least one FIFO slot";
    let inplace = ir.Ir.collective.Collective.inplace in
    let st =
      {
        buffers =
          Array.map
            (fun (g : Ir.gpu) ->
              (* Filled in place: [Array.init] of a block too large for
                 the minor heap runs a minor collection to promote its
                 first element, which costs one collection per rank. *)
              let b_input = Array.make g.Ir.input_chunks None in
              for index = 0 to g.Ir.input_chunks - 1 do
                b_input.(index) <- init ~rank:g.Ir.gpu_id ~index
              done;
              {
                b_input;
                b_output =
                  (if inplace then b_input
                   else Array.make g.Ir.output_chunks None);
                b_scratch = Array.make g.Ir.scratch_chunks None;
              })
            ir.Ir.gpus;
        executed = 0;
      }
    in
    (* Connection FIFOs: (src, dst, ch) -> queued messages, each tagged
       with the sending step's (gpu, tb, step) for observers. *)
    let queues : (int * int * int, message Queue.t) Hashtbl.t =
      Hashtbl.create 32
    in
    let queue key =
      match Hashtbl.find_opt queues key with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.add queues key q;
          q
    in
    (* Each thread block's send and receive FIFO, looked up in [queues]
       the first time one of its steps needs it — the moment the table
       would have created it anyway, so the leftover-message check below
       visits connections in the same order. *)
    let cached key =
      let cache =
        Array.map
          (fun (g : Ir.gpu) -> Array.make (Array.length g.Ir.tbs) None)
          ir.Ir.gpus
      in
      fun (g : Ir.gpu) (tb : Ir.tb) ->
        match cache.(g.Ir.gpu_id).(tb.Ir.tb_id) with
        | Some q -> q
        | None ->
            let q = queue (key g tb) in
            cache.(g.Ir.gpu_id).(tb.Ir.tb_id) <- Some q;
            q
    in
    let send_fifo =
      cached (fun (g : Ir.gpu) (tb : Ir.tb) ->
          (g.Ir.gpu_id, tb.Ir.send, tb.Ir.chan))
    and recv_fifo =
      cached (fun (g : Ir.gpu) (tb : Ir.tb) ->
          (tb.Ir.recv, g.Ir.gpu_id, tb.Ir.chan))
    in
    (* Per-thread-block progress: number of completed steps (the runtime's
       semaphores, §6.2). *)
    let sem =
      Array.map (fun (g : Ir.gpu) -> Array.make (Array.length g.Ir.tbs) 0)
        ir.Ir.gpus
    in
    let total_steps = Ir.num_steps ir in
    let blocked_reason (g : Ir.gpu) (tb : Ir.tb) (step : Ir.step) =
      let dep =
        List.find_opt
          (fun (dtb, dstep) -> sem.(g.Ir.gpu_id).(dtb) <= dstep)
          step.Ir.depends
      in
      match dep with
      | Some (dtb, dstep) ->
          Printf.sprintf "waiting on semaphore (tb %d, step %d)" dtb dstep
      | None ->
          if Instr.receives step.Ir.op && Queue.is_empty (recv_fifo g tb) then
            Printf.sprintf "waiting for data from rank %d" tb.Ir.recv
          else if
            Instr.sends step.Ir.op && Queue.length (send_fifo g tb) >= slots
          then
            Printf.sprintf "all %d FIFO slots to rank %d are full" slots
              tb.Ir.send
          else "unknown"
    in
    (* The data movements of step [d] of [tb] on [g]; they only run once
       the step may fire, so they never block. *)
    let push (g : Ir.gpu) (tb : Ir.tb) d vals =
      Queue.add
        { payload = vals; from_gpu = g.Ir.gpu_id; from_tb = tb.Ir.tb_id;
          from_step = d }
        (send_fifo g tb)
    in
    let pop (g : Ir.gpu) (tb : Ir.tb) d op =
      let m = Queue.pop (recv_fifo g tb) in
      (match on_deliver with
      | Some f ->
          f st
            ~src:(m.from_gpu, m.from_tb, m.from_step)
            ~dst:(g.Ir.gpu_id, tb.Ir.tb_id, d)
            ~op ~payload:m.payload
      | None -> ());
      m.payload
    in
    let rd g tb d l = read st ~inplace g tb d l in
    let wr (g : Ir.gpu) (tb : Ir.tb) d (l : Loc.t) vals =
      let arr = buffer_of st ~inplace l in
      if l.Loc.index + l.Loc.count > Array.length arr then
        error "%s: write past end of %s buffer at rank %d" (ctx g tb d)
          (Buffer_id.long_name l.Loc.buf) l.Loc.rank;
      (match on_write with
      | Some f -> f st ~writer:(g.Ir.gpu_id, tb.Ir.tb_id, d) ~loc:l ~vals
      | None -> ());
      for k = 0 to Array.length vals - 1 do
        arr.(l.Loc.index + k) <- Some (V.copy vals.(k))
      done
    in
    let try_step (g : Ir.gpu) (tb : Ir.tb) =
      let sem_g = sem.(g.Ir.gpu_id) in
      let d = sem_g.(tb.Ir.tb_id) in
      d < Array.length tb.Ir.steps
      &&
      let step = tb.Ir.steps.(d) in
      let op = step.Ir.op in
      let deps_ok = deps_met sem_g step.Ir.depends in
      let recv_ok =
        (not (Instr.receives op)) || not (Queue.is_empty (recv_fifo g tb))
      in
      let send_ok =
        (not (Instr.sends op)) || Queue.length (send_fifo g tb) < slots
      in
      deps_ok && recv_ok && send_ok
      && begin
           let src = step.Ir.src and dst = step.Ir.dst in
           (match op with
           | Instr.Nop -> ()
           | Instr.Send -> push g tb d (rd g tb d (Option.get src))
           | Instr.Recv -> wr g tb d (Option.get dst) (pop g tb d op)
           | Instr.Copy ->
               wr g tb d (Option.get dst) (rd g tb d (Option.get src))
           | Instr.Reduce ->
               wr g tb d (Option.get dst)
                 (Array.map2 V.reduce
                    (rd g tb d (Option.get dst))
                    (rd g tb d (Option.get src)))
           | Instr.Recv_reduce_copy ->
               wr g tb d (Option.get dst)
                 (Array.map2 V.reduce
                    (rd g tb d (Option.get src))
                    (pop g tb d op))
           | Instr.Recv_copy_send ->
               let msg = pop g tb d op in
               wr g tb d (Option.get dst) msg;
               push g tb d msg
           | Instr.Recv_reduce_send ->
               push g tb d
                 (Array.map2 V.reduce
                    (rd g tb d (Option.get src))
                    (pop g tb d op))
           | Instr.Recv_reduce_copy_send ->
               let res =
                 Array.map2 V.reduce
                   (rd g tb d (Option.get src))
                   (pop g tb d op)
               in
               wr g tb d (Option.get dst) res;
               push g tb d res);
           sem_g.(tb.Ir.tb_id) <- d + 1;
           st.executed <- st.executed + 1;
           true
         end
    in
    let rec loop () =
      if st.executed < total_steps then begin
        let progress = ref false in
        Array.iter
          (fun (g : Ir.gpu) ->
            Array.iter
              (fun tb -> while try_step g tb do progress := true done)
              g.Ir.tbs)
          ir.Ir.gpus;
        if not !progress then begin
          let blocked = Buffer.create 128 in
          Array.iter
            (fun (g : Ir.gpu) ->
              Array.iter
                (fun (tb : Ir.tb) ->
                  let d = sem.(g.Ir.gpu_id).(tb.Ir.tb_id) in
                  if d < Array.length tb.Ir.steps then
                    Buffer.add_string blocked
                      (Printf.sprintf "\n  gpu %d tb %d at step %d (%s): %s"
                         g.Ir.gpu_id tb.Ir.tb_id d
                         (Instr.opcode_name tb.Ir.steps.(d).Ir.op)
                         (blocked_reason g tb tb.Ir.steps.(d))))
                g.Ir.tbs)
            ir.Ir.gpus;
          error "deadlock: no thread block can make progress%s"
            (Buffer.contents blocked)
        end;
        loop ()
      end
    in
    loop ();
    Hashtbl.iter
      (fun (s, d, c) q ->
        if not (Queue.is_empty q) then
          let m = Queue.peek q in
          error
            "%d message(s) left in flight on connection %d->%d ch%d (first \
             sent by rank %d tb %d step %d)"
            (Queue.length q) s d c m.from_gpu m.from_tb m.from_step)
      queues;
    st
end

module Chunk_value = struct
  type v = Chunk.t

  let reduce = Chunk.reduce
  let copy c = c
end

module Symbolic = struct
  include Make (Chunk_value)

  let precondition (ir : Ir.t) =
    let coll = ir.Ir.collective in
    let in_size = Collective.input_buffer_size coll in
    fun ~rank ~index ->
      if index >= in_size then None
      else
        let c = Collective.precondition coll ~rank ~index in
        if Chunk.is_uninit c then None else Some c

  let run_collective ?slots ?on_deliver ?on_write (ir : Ir.t) =
    run ?slots ?on_deliver ?on_write ~init:(precondition ir) ir
end

module Float_value = struct
  type v = float array

  let reduce a b = Array.map2 ( +. ) a b
  let copy = Array.copy
end

module Data = struct
  include Make (Float_value)

  (* Cheap deterministic hash-based pseudo-random chunk contents. *)
  let random_input ~elems_per_chunk ~seed ~rank ~index =
    Array.init elems_per_chunk (fun e ->
        let h =
          (seed * 1000003) + (rank * 7919) + (index * 104729) + (e * 31)
        in
        let h = h lxor (h lsr 13) in
        let h = h * 0x5DEECE6 in
        let h = h lxor (h lsr 17) in
        float_of_int (h land 0xFFFF) /. 65536.)

  let init_of_precondition ~elems_per_chunk ~seed (ir : Ir.t) ~rank ~index =
    let coll = ir.Ir.collective in
    if index >= Collective.input_buffer_size coll then None
    else
      let c = Collective.precondition coll ~rank ~index in
      match Chunk.inputs c with
      | None -> None
      | Some [ (r, i) ] ->
          Some (random_input ~elems_per_chunk ~seed ~rank:r ~index:i)
      | Some _ ->
          (* Preconditions only ever place plain input chunks. *)
          assert false

  let run_random ?slots ?(elems_per_chunk = 4) ?(seed = 42) (ir : Ir.t) =
    run ?slots
      ~init:(fun ~rank ~index ->
        init_of_precondition ~elems_per_chunk ~seed ir ~rank ~index)
      ir

  let reference ~elems_per_chunk ~seed (ir : Ir.t) ~rank ~index =
    match Collective.postcondition ir.Ir.collective ~rank ~index with
    | None -> None
    | Some c -> (
        match Chunk.inputs c with
        | None -> None
        | Some ids ->
            let acc = Array.make elems_per_chunk 0. in
            List.iter
              (fun (r, i) ->
                let v = random_input ~elems_per_chunk ~seed ~rank:r ~index:i in
                Array.iteri (fun e x -> acc.(e) <- acc.(e) +. x) v)
              ids;
            Some acc)
end

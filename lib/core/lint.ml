type severity =
  | Error
  | Warning
  | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type at = {
  at_gpu : int;
  at_tb : int;
  at_step : int;
}

type diagnostic = {
  d_rule : string;
  d_severity : severity;
  d_at : at option;
  d_message : string;
}

type category =
  | Correctness
  | Perf

let category_name = function Correctness -> "correctness" | Perf -> "perf"

type rule = {
  rule_id : string;
  rule_doc : string;
  rule_severity : severity;
  rule_category : category;
}

let rules =
  [
    {
      rule_id = "race";
      rule_doc =
        "two steps on different thread blocks of one GPU touch overlapping \
         buffer intervals without a happens-before ordering";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "fifo-deadlock";
      rule_doc =
        "the waiting graph (program order, depends, send/receive matching, \
         FIFO back-pressure) has a cycle: the kernel hangs";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "conn-mismatch";
      rule_doc =
        "a connection's send and receive counts differ, so a message is \
         lost or a receive waits forever; or a send and the receive it \
         delivers move different chunk counts";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "dangling-depends";
      rule_doc =
        "a depends entry names a missing thread block or step, the step's \
         own thread block, or a target not marked has_dep";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "oob-access";
      rule_doc =
        "a step reads or writes past its GPU's declared input/output/\
         scratch buffer size";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "dead-scratch";
      rule_doc = "scratch chunks are written but never read";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "channel-contention";
      rule_doc =
        "more thread blocks share one (gpu, channel) than the contention \
         threshold; they serialize on the channel's connections";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "unused-scratch";
      rule_doc = "declared scratch chunks are never accessed";
      rule_severity = Info;
      rule_category = Correctness;
    };
    {
      rule_id = "uninitialized-read";
      rule_doc =
        "a step reads a buffer slot no prior step (nor the collective's \
         precondition) wrote: the executor would crash at runtime; the \
         provenance pass reports it statically with the reading instruction";
      rule_severity = Error;
      rule_category = Correctness;
    };
    {
      rule_id = "dead-store";
      rule_doc =
        "a step's written slots are all either overwritten before any read \
         or left unread at the end outside the constrained output: the \
         write (and the work feeding it) is wasted";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "unread-scratch";
      rule_doc =
        "a scratch slot is written but (tracked through the chunk dataflow, \
         unlike dead-scratch's syntactic read check) none of its values \
         ever contribute to a constrained output position";
      rule_severity = Warning;
      rule_category = Correctness;
    };
    {
      rule_id = "below-bandwidth-optimal";
      rule_doc =
        "the algorithm's bandwidth efficiency (alpha-beta-gamma lower bound \
         over its own critical path and congestion) falls below the \
         threshold: a better schedule provably exists";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "link-hotspot";
      rule_doc =
        "one physical link's transfer time (bytes over capacity) exceeds \
         the mean over loaded links by the hotspot factor; the schedule \
         serializes on that wire";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "tb-imbalance";
      rule_doc =
        "one thread block's modelled work exceeds the mean by the imbalance \
         factor; stragglers bound the kernel's finish time";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "redundant-send";
      rule_doc =
        "a send delivers data the destination rank provably already holds \
         (tracked through the chunk dataflow): pure wasted wire time";
      rule_severity = Warning;
      rule_category = Perf;
    };
    {
      rule_id = "missed-fusion";
      rule_doc =
        "a received chunk takes a scratch round-trip that a fused opcode \
         (recv-copy-send / recv-reduce-send) would eliminate";
      rule_severity = Info;
      rule_category = Perf;
    };
  ]

let severity_of_rule id =
  match List.find_opt (fun r -> r.rule_id = id) rules with
  | Some r -> r.rule_severity
  | None -> invalid_arg ("Lint: unknown rule " ^ id)

let diag ?at id fmt =
  Format.kasprintf
    (fun msg ->
      { d_rule = id; d_severity = severity_of_rule id; d_at = at; d_message = msg })
    fmt

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let check_races hb (ir : Ir.t) =
  List.map
    (fun (r : Races.race) ->
      diag
        ~at:{ at_gpu = r.Races.r_gpu; at_tb = r.Races.r_tb1; at_step = r.Races.r_step1 }
        "race" "%a" Races.pp_race r)
    (Races.find ~hb ir)

let check_fifo_deadlock hb slots =
  match Hbgraph.cycle_size hb with
  | 0 -> []
  | k ->
      [
        diag "fifo-deadlock"
          "dependency cycle through %d step(s) (with %d FIFO slots)" k slots;
      ]

let check_conn_mismatch hb (ir : Ir.t) =
  List.map
    (fun (src, dst, ch, sends, recvs) ->
      diag "conn-mismatch" "connection %d->%d ch%d: %d send(s) vs %d receive(s)"
        src dst ch sends recvs)
    (Hbgraph.mismatched_connections hb)
  @ List.map
      (fun (m : Ir.count_mismatch) ->
        let r = m.Ir.cm_recv in
        let at =
          { at_gpu = r.Ir.ep_rank; at_tb = r.Ir.ep_tb; at_step = r.Ir.ep_step }
        in
        diag ~at "conn-mismatch" "%a" Ir.pp_count_mismatch m)
      (Ir.count_mismatches ir)

let check_dangling_depends (ir : Ir.t) =
  let out = ref [] in
  Ir.iter_steps ir (fun g tb st ->
      let at =
        { at_gpu = g.Ir.gpu_id; at_tb = tb.Ir.tb_id; at_step = st.Ir.s }
      in
      List.iter
        (fun (dtb, dstep) ->
          if dtb < 0 || dtb >= Array.length g.Ir.tbs then
            out :=
              diag ~at "dangling-depends" "depends on unknown thread block %d" dtb
              :: !out
          else if dstep < 0 || dstep >= Array.length g.Ir.tbs.(dtb).Ir.steps
          then
            out :=
              diag ~at "dangling-depends" "depends on unknown step (%d, %d)" dtb
                dstep
              :: !out
          else if dtb = tb.Ir.tb_id then
            out :=
              diag ~at "dangling-depends"
                "depends on its own thread block (program order already \
                 covers step %d)"
                dstep
              :: !out
          else if not g.Ir.tbs.(dtb).Ir.steps.(dstep).Ir.has_dep then
            out :=
              diag ~at "dangling-depends"
                "depends on (%d, %d) which is not marked has_dep: the \
                 runtime will not post its semaphore"
                dtb dstep
              :: !out)
        st.Ir.depends);
  !out

let declared_size (g : Ir.gpu) = function
  | Buffer_id.Input -> g.Ir.input_chunks
  | Buffer_id.Output -> g.Ir.output_chunks
  | Buffer_id.Scratch -> g.Ir.scratch_chunks

let check_oob (ir : Ir.t) =
  let out = ref [] in
  Ir.iter_steps ir (fun g tb st ->
      let at =
        { at_gpu = g.Ir.gpu_id; at_tb = tb.Ir.tb_id; at_step = st.Ir.s }
      in
      List.iter
        (fun (w, (l : Loc.t)) ->
          let size = declared_size g l.Loc.buf in
          if l.Loc.index + l.Loc.count > size then
            out :=
              diag ~at "oob-access" "%s %s[%d..%d] but gpu %d declares %d %s chunk(s)"
                (if w then "writes" else "reads")
                (Buffer_id.long_name l.Loc.buf)
                l.Loc.index
                (l.Loc.index + l.Loc.count - 1)
                g.Ir.gpu_id size
                (Buffer_id.long_name l.Loc.buf)
              :: !out)
        (Races.footprint ir st));
  !out

let check_scratch (ir : Ir.t) =
  let out = ref [] in
  Array.iter
    (fun (g : Ir.gpu) ->
      let size = g.Ir.scratch_chunks in
      if size > 0 then begin
        let written = Array.make size false in
        let read = Array.make size false in
        (* First writer per index, for a usable diagnostic location. *)
        let writer = Array.make size None in
        Array.iter
          (fun (tb : Ir.tb) ->
            Array.iter
              (fun (st : Ir.step) ->
                List.iter
                  (fun (w, (l : Loc.t)) ->
                    if Buffer_id.equal l.Loc.buf Buffer_id.Scratch then
                      for k = l.Loc.index to min (l.Loc.index + l.Loc.count) size - 1 do
                        if w then begin
                          written.(k) <- true;
                          if writer.(k) = None then
                            writer.(k) <- Some (tb.Ir.tb_id, st.Ir.s)
                        end
                        else read.(k) <- true
                      done)
                  (Races.footprint ir st))
              tb.Ir.steps)
          g.Ir.tbs;
        (* Contiguous written-but-never-read ranges. *)
        let k = ref 0 in
        while !k < size do
          if written.(!k) && not read.(!k) then begin
            let lo = !k in
            while !k < size && written.(!k) && not read.(!k) do incr k done;
            let at =
              match writer.(lo) with
              | Some (tb, s) ->
                  Some { at_gpu = g.Ir.gpu_id; at_tb = tb; at_step = s }
              | None -> None
            in
            out :=
              diag ?at "dead-scratch"
                "gpu %d scratch[%d..%d] is written but never read"
                g.Ir.gpu_id lo (!k - 1)
              :: !out
          end
          else incr k
        done;
        let untouched =
          Array.to_list (Array.init size (fun i -> i))
          |> List.filter (fun i -> (not written.(i)) && not read.(i))
          |> List.length
        in
        if untouched > 0 then
          out :=
            diag "unused-scratch"
              "gpu %d declares %d scratch chunk(s) but %d are never accessed"
              g.Ir.gpu_id size untouched
            :: !out
      end)
    ir.Ir.gpus;
  !out

let check_channel_contention ~max_tbs_per_channel (ir : Ir.t) =
  let out = ref [] in
  Array.iter
    (fun (g : Ir.gpu) ->
      let per_chan = Hashtbl.create 4 in
      Array.iter
        (fun (tb : Ir.tb) ->
          if tb.Ir.send >= 0 || tb.Ir.recv >= 0 then
            Hashtbl.replace per_chan tb.Ir.chan
              (1 + Option.value ~default:0 (Hashtbl.find_opt per_chan tb.Ir.chan)))
        g.Ir.tbs;
      Hashtbl.iter
        (fun chan n ->
          if n > max_tbs_per_channel then
            out :=
              diag "channel-contention"
                "gpu %d channel %d is shared by %d thread blocks (threshold \
                 %d); consider spreading connections over more channels"
                g.Ir.gpu_id chan n max_tbs_per_channel
              :: !out)
        per_chan)
    ir.Ir.gpus;
  !out

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let compare_diag a b =
  let at_key = function
    | None -> (-1, -1, -1)
    | Some { at_gpu; at_tb; at_step } -> (at_gpu, at_tb, at_step)
  in
  compare
    (severity_rank a.d_severity, at_key a.d_at, a.d_rule, a.d_message)
    (severity_rank b.d_severity, at_key b.d_at, b.d_rule, b.d_message)

let run ?fifo_slots ?(max_tbs_per_channel = 8) (ir : Ir.t) =
  let slots =
    match fifo_slots with
    | Some s -> s
    | None -> Msccl_topology.Protocol.num_slots ir.Ir.proto
  in
  let hb = Hbgraph.build ~fifo_slots:slots ir in
  List.concat
    [
      check_races hb ir;
      check_fifo_deadlock hb slots;
      check_conn_mismatch hb ir;
      check_dangling_depends ir;
      check_oob ir;
      check_scratch ir;
      check_channel_contention ~max_tbs_per_channel ir;
    ]
  |> List.sort compare_diag

let errors ds = List.filter (fun d -> d.d_severity = Error) ds

let has_errors ds = List.exists (fun d -> d.d_severity = Error) ds

let pp_diagnostic fmt d =
  (match d.d_at with
  | Some at ->
      Format.fprintf fmt "%s[%s] gpu %d tb %d step %d: "
        (severity_name d.d_severity)
        d.d_rule at.at_gpu at.at_tb at.at_step
  | None ->
      Format.fprintf fmt "%s[%s]: " (severity_name d.d_severity) d.d_rule);
  Format.pp_print_string fmt d.d_message

let pp fmt ds =
  List.iter (fun d -> Format.fprintf fmt "%a@." pp_diagnostic d) ds;
  let count s = List.length (List.filter (fun d -> d.d_severity = s) ds) in
  Format.fprintf fmt "%d error(s), %d warning(s), %d info@." (count Error)
    (count Warning) (count Info)

let to_json ds =
  let one d =
    let loc =
      match d.d_at with
      | None -> []
      | Some at ->
          Json.
            [ ("gpu", Int at.at_gpu); ("tb", Int at.at_tb);
              ("step", Int at.at_step) ]
    in
    Json.(
      Obj
        ([ ("rule", String d.d_rule);
           ("severity", String (severity_name d.d_severity)) ]
        @ loc
        @ [ ("message", String d.d_message) ]))
  in
  Json.List (List.map one ds)

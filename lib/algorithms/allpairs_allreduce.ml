open Msccl_core

let name = "allpairs-allreduce"

let program ~num_ranks prog =
  (* Gather: every rank q ships its copy of chunk r to rank r's scratch.
     Scratch slots are keyed by the sender's offset relative to the
     receiver, so every rank's local program (and its reduction chain
     below) is identical up to rank rotation — the symmetry pass certifies
     the shift automorphism and analyzes one representative rank. *)
  for r = 0 to num_ranks - 1 do
    for q = 0 to num_ranks - 1 do
      if q <> r then begin
        let scratch_index = ((q - r + num_ranks) mod num_ranks) - 1 in
        let c = Program.chunk prog ~rank:q Buffer_id.Input ~index:r () in
        ignore
          (Program.copy c ~rank:r Buffer_id.Scratch ~index:scratch_index ())
      end
    done
  done;
  (* Local reduction of the R-1 gathered contributions. *)
  for r = 0 to num_ranks - 1 do
    let acc = ref (Program.chunk prog ~rank:r Buffer_id.Input ~index:r ()) in
    for k = 0 to num_ranks - 2 do
      let part = Program.chunk prog ~rank:r Buffer_id.Scratch ~index:k () in
      acc := Program.reduce !acc part ()
    done;
    (* Broadcast the finished chunk to every other rank. *)
    for q = 0 to num_ranks - 1 do
      if q <> r then
        ignore (Program.copy !acc ~rank:q Buffer_id.Input ~index:r ())
    done
  done

let hint ~num_ranks =
  (* Slice [r] is the gather-into-r / reduce-at-r / broadcast-from-r group
     of the loops above. Scratch slots are already keyed relative to the
     receiver, so only the input chunk index rotates with the slice. *)
  Sym_hint.ring_shift ~shift:1 ~d_input:1
    ~scratch_chunks:(num_ranks - 1)
    (fun prog ->
      let r = 0 in
      for q = 0 to num_ranks - 1 do
        if q <> r then begin
          let scratch_index = ((q - r + num_ranks) mod num_ranks) - 1 in
          let c = Program.chunk prog ~rank:q Buffer_id.Input ~index:r () in
          ignore
            (Program.copy c ~rank:r Buffer_id.Scratch ~index:scratch_index ())
        end
      done;
      let acc =
        ref (Program.chunk prog ~rank:r Buffer_id.Input ~index:r ())
      in
      for k = 0 to num_ranks - 2 do
        let part = Program.chunk prog ~rank:r Buffer_id.Scratch ~index:k () in
        acc := Program.reduce !acc part ()
      done;
      for q = 0 to num_ranks - 1 do
        if q <> r then
          ignore (Program.copy !acc ~rank:q Buffer_id.Input ~index:r ())
      done)

let ir ?proto ?instances ?verify ~num_ranks () =
  let coll =
    Collective.make Collective.Allreduce ~num_ranks ~chunk_factor:num_ranks
      ~inplace:true ()
  in
  Compile.ir ~name ?proto ?instances ?verify coll
    (program ~num_ranks)

open Msccl_core

let name ~channels = Printf.sprintf "ring-allgather-ch%d" channels

let rotate = Patterns.rotate_channels ~who:"Allgather_ring"

let program ~num_ranks ~chunk_factor ~channels prog =
  let c = chunk_factor in
  let ranks = List.init num_ranks Fun.id in
  let ch = rotate channels in
  for r = 0 to num_ranks - 1 do
    let own = Program.chunk prog ~rank:r Buffer_id.Input ~index:0 ~count:c () in
    ignore (Program.copy own ~rank:r Buffer_id.Output ~index:(r * c) ())
  done;
  Patterns.ring_all_gather prog ~ranks ~buf:Buffer_id.Output ~offset:0 ~count:c
    ~ch ()

let hint ~num_ranks ~chunk_factor ~channels =
  let c = chunk_factor in
  let ranks = List.init num_ranks Fun.id in
  let ch = rotate channels in
  Sym_hint.ring_shift ~shift:1 ~d_output:c (fun prog ->
      let own =
        Program.chunk prog ~rank:0 Buffer_id.Input ~index:0 ~count:c ()
      in
      ignore (Program.copy own ~rank:0 Buffer_id.Output ~index:0 ());
      Patterns.ring_all_gather prog ~ranks ~buf:Buffer_id.Output ~offset:0
        ~count:c ~ch ~only:(Int.equal 0) ())

let ir ?proto ?(channels = 1) ?(chunk_factor = 1) ?instances ?verify
    ~num_ranks () =
  let coll =
    Collective.make Collective.Allgather ~num_ranks ~chunk_factor ()
  in
  Compile.ir ~name:(name ~channels) ?proto ?instances ?verify coll
    (program ~num_ranks ~chunk_factor ~channels)

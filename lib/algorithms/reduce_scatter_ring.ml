open Msccl_core

let name ~channels = Printf.sprintf "ring-reducescatter-ch%d" channels

let rotate = Patterns.rotate_channels ~who:"Reduce_scatter_ring"

let program ~num_ranks ~chunk_factor ~channels prog =
  let c = chunk_factor in
  let ranks = List.init num_ranks Fun.id in
  let ch = rotate channels in
  Patterns.ring_reduce_scatter prog ~ranks ~offset:0 ~count:c ~ch ();
  for r = 0 to num_ranks - 1 do
    let seg =
      Program.chunk prog ~rank:r Buffer_id.Input ~index:(r * c) ~count:c ()
    in
    ignore (Program.copy seg ~rank:r Buffer_id.Output ~index:0 ())
  done

let hint ~num_ranks ~chunk_factor ~channels =
  let c = chunk_factor in
  let ranks = List.init num_ranks Fun.id in
  let ch = rotate channels in
  Sym_hint.ring_shift ~shift:1 ~d_input:c (fun prog ->
      Patterns.ring_reduce_scatter prog ~ranks ~offset:0 ~count:c ~ch
        ~only:(Int.equal 0) ();
      let seg =
        Program.chunk prog ~rank:0 Buffer_id.Input ~index:0 ~count:c ()
      in
      ignore (Program.copy seg ~rank:0 Buffer_id.Output ~index:0 ()))

let ir ?proto ?(channels = 1) ?(chunk_factor = 1) ?instances ?verify
    ~num_ranks () =
  let coll =
    Collective.make Collective.Reduce_scatter ~num_ranks ~chunk_factor ()
  in
  Compile.ir ~name:(name ~channels) ?proto ?instances ?verify coll
    (program ~num_ranks ~chunk_factor ~channels)

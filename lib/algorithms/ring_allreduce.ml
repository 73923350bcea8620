open Msccl_core

let name ~channels = Printf.sprintf "ring-allreduce-ch%d" channels

let rotate = Patterns.rotate_channels ~who:"Ring_allreduce"

let program ~num_ranks ~channels prog =
  let ranks = List.init num_ranks Fun.id in
  let ch = rotate channels in
  Patterns.ring_reduce_scatter prog ~ranks ~offset:0 ~count:1 ~ch ();
  Patterns.ring_all_gather prog ~ranks ~offset:0 ~count:1 ~ch
    ~hop_base:(num_ranks - 1) ()

let hint ~num_ranks ~channels =
  let ranks = List.init num_ranks Fun.id in
  let ch = rotate channels in
  let only = Int.equal 0 in
  (* Slot [r] of both ring passes is slot 0 shifted by [r] ranks with its
     chunk index shifted by [r]: slice 0 is one RS chain plus one AG
     chain. *)
  Sym_hint.ring_shift ~shift:1 ~d_input:1 (fun prog ->
      Patterns.ring_reduce_scatter prog ~ranks ~offset:0 ~count:1 ~ch ~only
        ();
      Patterns.ring_all_gather prog ~ranks ~offset:0 ~count:1 ~ch
        ~hop_base:(num_ranks - 1) ~only ())

let program_multi ~rings prog =
  Array.iteri
    (fun k ranks ->
      let num_ranks = List.length ranks in
      let ch ~hop:_ = Some k in
      Patterns.ring_reduce_scatter prog ~ranks ~offset:(k * num_ranks)
        ~count:1 ~ch ();
      Patterns.ring_all_gather prog ~ranks ~offset:(k * num_ranks) ~count:1
        ~ch ())
    rings

let ir_multi ?proto ?verify ~rings () =
  if Array.length rings = 0 then invalid_arg "Ring_allreduce: no rings";
  let num_ranks = List.length rings.(0) in
  Array.iter
    (fun r ->
      if List.sort_uniq Int.compare r <> List.init num_ranks Fun.id then
        invalid_arg "Ring_allreduce: each ring must permute all ranks")
    rings;
  let coll =
    Collective.make Collective.Allreduce ~num_ranks
      ~chunk_factor:(num_ranks * Array.length rings)
      ~inplace:true ()
  in
  Compile.ir
    ~name:(Printf.sprintf "ring-allreduce-x%d" (Array.length rings))
    ?proto ?verify coll (program_multi ~rings)

let ir ?proto ?(channels = 1) ?instances ?verify ~num_ranks () =
  let coll =
    Collective.make Collective.Allreduce ~num_ranks ~chunk_factor:num_ranks
      ~inplace:true ()
  in
  Compile.ir ~name:(name ~channels) ?proto ?instances ?verify coll
    (program ~num_ranks ~channels)

(** Out-of-place Ring AllGather: each rank's [chunk_factor] input chunks
    first move to their final position in the output buffer, then rotate
    around the ring (Fig. 3b's AllGather over the output buffer).
    [channels] rotates hops across channels as in {!Ring_allreduce}, and
    must be at least 1 (else [Invalid_argument]). *)

val name : channels:int -> string
(** The IR name {!ir} gives its output for [channels]. *)

val program :
  num_ranks:int -> chunk_factor:int -> channels:int ->
  Msccl_core.Program.t -> unit

val hint :
  num_ranks:int -> chunk_factor:int -> channels:int -> Msccl_core.Sym_hint.t
(** Ring-shift symmetry hint matching {!program}: shift +1, output chunk
    delta [+chunk_factor]. *)

val ir :
  ?proto:Msccl_topology.Protocol.t ->
  ?channels:int ->
  ?chunk_factor:int ->
  ?instances:int ->
  ?verify:bool ->
  num_ranks:int ->
  unit ->
  Msccl_core.Ir.t

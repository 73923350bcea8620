(** All Pairs AllReduce (paper §7.1.2).

    An algorithm the MSCCLang authors developed while exploring the design
    space, targeting small buffers: with [R] ranks and [R] chunks, rank [r]
    gathers chunk [r] from every other rank into scratch (one step),
    reduces locally, and broadcasts the result back to everyone (second
    step). It moves the same volume as Ring but in 2 communication steps
    instead of [2R - 2], so at latency-bound sizes it is up to 1.8x faster
    than NCCL's Ring. *)

val name : string
(** The IR name {!ir} gives its output. *)

val program : num_ranks:int -> Msccl_core.Program.t -> unit

val hint : num_ranks:int -> Msccl_core.Sym_hint.t
(** Ring-shift symmetry hint matching {!program}: shift +1, input chunk
    delta +1, receiver-relative scratch (delta 0). *)

val ir :
  ?proto:Msccl_topology.Protocol.t ->
  ?instances:int ->
  ?verify:bool ->
  num_ranks:int ->
  unit ->
  Msccl_core.Ir.t

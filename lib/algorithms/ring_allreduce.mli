(** Ring AllReduce (paper §7.1.1).

    With [R] ranks the input buffer divides into [R] chunks; each chunk
    traverses the logical ring twice — a ReduceScatter pass that sums it
    and an AllGather pass that distributes the result (Fig. 3b with all
    ranks, offset 0, count 1).

    [channels] distributes the logical ring across that many channels by
    rotating the channel with the hop number; hops in different channels
    run in different thread blocks and overlap their sends and receives,
    which is the source of the paper's up-to-1.9x win over NCCL between
    32 KB and 3 MB. With [channels = 1] every hop fuses into the classic
    rrcs/rcs chain, which — combined with [instances = 24] — is exactly
    NCCL's own Ring schedule (§7.1.1).

    [instances] replicates the whole program (the figures' [r]).
    {!program}, {!hint} and {!ir} raise [Invalid_argument] when
    [channels < 1]. *)

val name : channels:int -> string
(** The IR name {!ir} gives its output for [channels]. *)

val program : num_ranks:int -> channels:int -> Msccl_core.Program.t -> unit

val hint : num_ranks:int -> channels:int -> Msccl_core.Sym_hint.t
(** Ring-shift symmetry hint matching {!program}: shift +1, input chunk
    delta +1, representative slice = ring slot 0 of both passes. *)

val ir :
  ?proto:Msccl_topology.Protocol.t ->
  ?channels:int ->
  ?instances:int ->
  ?verify:bool ->
  num_ranks:int ->
  unit ->
  Msccl_core.Ir.t
(** Compiled, fused, scheduled and verified. [channels] defaults to 1,
    [instances] to 1, [proto] to [Simple]. *)

val ir_multi :
  ?proto:Msccl_topology.Protocol.t ->
  ?verify:bool ->
  rings:int list array ->
  unit ->
  Msccl_core.Ir.t
(** An AllReduce built from several concurrent rings: ring [k] (a
    permutation of all ranks) owns chunks [k*R .. (k+1)*R - 1] on channel
    [k]. On multi-node systems NCCL rotates each ring's node-exit GPU so
    that different rings cross nodes through different NICs; {!ir}'s
    replicated instances would all share two NICs instead, so the NCCL
    baseline model uses this entry point with rotated rings. *)

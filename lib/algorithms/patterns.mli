(** Reusable chunk-routing fragments (the paper's Fig. 3b helpers).

    Both helpers route chunks around a logical ring given by [ranks],
    operating in the buffer [buf] (the paper's in-place versions use
    [Input]). The [r]-th ring slot covers the [count] contiguous chunks
    starting at [offset + r * stride]; [stride] defaults to [count] (dense
    slots) and a larger stride addresses a sub-span of wider slots, which
    is how the hierarchical AllReduce parallelizes its aggregated
    [count = N] transfers (§5.1).

    [ch] maps the hop number (0-based position along a chunk's traversal)
    to a channel, implementing the "distribute a logical ring across
    multiple channels" optimization of §7.1.1: hops on different channels
    land in different thread blocks and overlap. With a constant [ch] the
    compiler fuses each hop into rrcs/rrs/rcs chains exactly like NCCL's
    ring.

    [only] filters which ring slots are emitted (default: all). Slot [r]'s
    chain is the image of slot 0's under [r] ring rotations, so
    [~only:(Int.equal 0)] is exactly the representative slice a
    {!Msccl_core.Sym_hint.ring_shift} hint must trace. *)

val rotate_channels : who:string -> int -> hop:int -> int option
(** [rotate_channels ~who channels] is the [ch] that rotates the channel
    with the hop number over [channels] channels. Raises
    [Invalid_argument "<who>: channels < 1"] when [channels < 1]. *)

val ring_reduce_scatter :
  Msccl_core.Program.t ->
  ranks:int list ->
  ?buf:Msccl_core.Buffer_id.t ->
  offset:int ->
  count:int ->
  ?stride:int ->
  ?ch:(hop:int -> int option) ->
  ?only:(int -> bool) ->
  unit ->
  unit
(** After this fragment, the [r]-th rank of the ring holds the full sum of
    every rank's chunks [offset + r*stride .. offset + r*stride + count - 1]. *)

val ring_all_gather :
  Msccl_core.Program.t ->
  ranks:int list ->
  ?buf:Msccl_core.Buffer_id.t ->
  offset:int ->
  count:int ->
  ?stride:int ->
  ?ch:(hop:int -> int option) ->
  ?hop_base:int ->
  ?only:(int -> bool) ->
  unit ->
  unit
(** Distributes each ring rank's chunks [offset + r*stride ..] to all ranks
    of the ring. [hop_base] offsets the hop numbering passed to [ch] (so an
    AllGather following a ReduceScatter continues the channel rotation). *)

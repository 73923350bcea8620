(** MSCCL-IR: the executable form of a compiled program (paper §5, Fig. 4).

    MSCCL-IR is a tree: a collective divides into per-GPU programs, which
    divide into thread blocks holding a list of instructions executed
    sequentially. A thread block owns at most one send connection and one
    receive connection, identified by (peer, channel); a connection is
    owned by exactly one sending and one receiving thread block, so thread
    blocks never serialize over a shared connection.

    Instructions reference buffers by name and chunk offset; cross
    thread-block execution-order dependencies are explicit [(tb, step)]
    pairs which the runtime enforces with semaphores (paper §6.2). *)

type step = {
  s : int;  (** Index of this step within its thread block. *)
  op : Instr.opcode;
  src : Loc.t option;  (** Local read location ([rank] = owning GPU). *)
  dst : Loc.t option;  (** Local write location. *)
  count : int;  (** Chunks moved (aggregation factor). *)
  depends : (int * int) list;
      (** [(tb_id, step)] pairs that must have executed first. *)
  has_dep : bool;  (** Some other step waits on this one. *)
}

type tb = {
  tb_id : int;
  send : int;  (** Send-peer rank, or -1. *)
  recv : int;  (** Receive-peer rank, or -1. *)
  chan : int;
  steps : step array;
}

type gpu = {
  gpu_id : int;
  input_chunks : int;  (** Allocated input-buffer size in chunks. *)
  output_chunks : int;
  scratch_chunks : int;
  tbs : tb array;
}

type t = {
  name : string;
  collective : Collective.t;
  proto : Msccl_topology.Protocol.t;
  gpus : gpu array;
}

val num_ranks : t -> int

val num_thread_blocks : t -> int
(** Total across all GPUs. *)

val num_steps : t -> int
(** Total instruction count. *)

val max_thread_blocks_per_gpu : t -> int

val num_channels : t -> int
(** 1 + the highest channel id used. *)

val iter_steps : t -> (gpu -> tb -> step -> unit) -> unit

val with_proto : t -> Msccl_topology.Protocol.t -> t

val validate : t -> unit
(** Structural invariants: peers in range; sending/receiving steps only in
    thread blocks with the matching connection; at most one sending and one
    receiving thread block per (gpu, peer, channel) connection; dependency
    references valid and [has_dep] consistent; send/receive counts matched
    per connection. Raises [Invalid_argument] with a message. *)

type endpoint = {
  ep_rank : int;
  ep_tb : int;
  ep_step : int;
  ep_op : Instr.opcode;
  ep_count : int;  (** The step's [count]. *)
}
(** One end of a message: the sending or the receiving step. *)

type count_mismatch = {
  cm_src : int;
  cm_dst : int;
  cm_chan : int;
  cm_message : int;  (** Position of the message on its connection, from 0. *)
  cm_send : endpoint;
  cm_recv : endpoint;
}

val count_mismatches : t -> count_mismatch list
(** Messages whose sending and receiving steps move different numbers of
    chunks: the k-th send on a connection delivers the k-th receive, and
    both must agree on [count]. {!validate} does not check this (it
    balances message counts, not their sizes); the verifiers report it
    instead of reducing arrays of different lengths. Sorted by
    connection, then message. Tolerates malformed IR (unbalanced
    connections pair up to the shorter side). *)

val pp_count_mismatch : Format.formatter -> count_mismatch -> unit
(** ["connection S->D chC, message K: rank .. tb .. step .. (op) sends N
    chunk(s) but rank .. tb .. step .. (op) receives M"]. *)

val equal : t -> t -> bool
(** Structural equality: name, protocol, collective shape
    ({!Collective.equal_shape} — a [Custom] collective's closures are not
    compared), and every gpu/thread-block/step field. This is the notion of
    equality XML round-tripping preserves. *)

val pp : Format.formatter -> t -> unit
(** Readable dump of the whole IR (the format of Fig. 4's MSCCL-IR box). *)

val summary : t -> string
(** One-line ["name: R gpus, T tbs, S steps, C channels"]. *)

(** A functional interpreter for MSCCL-IR.

    Executes every thread block's instruction list cooperatively, enforcing
    exactly the runtime's synchronization rules (paper §6.2):

    - steps run in order within a thread block;
    - cross thread-block [depends] wait on the target's semaphore;
    - a receive blocks until the matching send's data is in the connection
      FIFO; a send blocks while all [slots] FIFO slots are full;
    - messages on a connection are delivered in order.

    The interpreter is generic over the value domain: instantiated with the
    chunk algebra it is the paper's correctness checker (§3.2); with float
    vectors it actually performs the collective, which tests and examples
    use to validate results numerically end to end.

    Execution is deterministic (round-robin over thread blocks). If no
    thread block can advance and some are unfinished, {!Exec_error} is
    raised with a per-thread-block diagnosis — this is a dynamic deadlock
    detector for hand-written IR (compiled IR is deadlock-free by
    construction, §5.2). *)

exception Exec_error of string

module type VALUE = sig
  type v

  val reduce : v -> v -> v
  (** Point-wise reduction. *)

  val copy : v -> v
  (** Defensive copy (identity for immutable values). *)
end

module type S = sig
  type v

  type state

  val run :
    ?slots:int ->
    ?on_deliver:
      (state ->
      src:int * int * int ->
      dst:int * int * int ->
      op:Instr.opcode ->
      payload:v array ->
      unit) ->
    ?on_write:
      (state -> writer:int * int * int -> loc:Loc.t -> vals:v array -> unit) ->
    init:(rank:int -> index:int -> v option) ->
    Ir.t ->
    state
  (** Executes the program. [init] gives the initial contents of every
      rank's input buffer ([None] = uninitialized); [slots] bounds
      outstanding sends per connection (default: the IR protocol's slot
      count). [on_deliver] is called once per message, just before the
      receiving step consumes it, with the sending and receiving steps'
      [(gpu, tb, step)] coordinates, the receiving opcode and the payload;
      the [state] argument reflects the buffers {e before} the receive
      takes effect, which is what redundancy analyses need. [on_write] is
      called once per local buffer write, after its bounds check and just
      before the values land, with the writing step's [(gpu, tb, step)],
      the destination [Loc.t] exactly as the instruction names it (an
      in-place collective's [Output] loc aliases the input array) and the
      [vals] being written, one per chunk of the loc; [state] still holds
      the values they overwrite. {!Verify.check_postcondition} uses it to
      attribute a wrong output slot to its last writer, and
      {!Perfcheck.lint} to keep each rank's held values without scanning
      its buffers. Raises {!Exec_error} on deadlock, on reading
      uninitialized data, or on leftover in-flight messages. *)

  val input : state -> rank:int -> v option array
  val output : state -> rank:int -> v option array
  val scratch : state -> rank:int -> v option array

  val steps_executed : state -> int
end

module Make (V : VALUE) : S with type v = V.v

module Symbolic : sig
  include S with type v = Chunk.t

  val run_collective :
    ?slots:int ->
    ?on_deliver:
      (state ->
      src:int * int * int ->
      dst:int * int * int ->
      op:Instr.opcode ->
      payload:Chunk.t array ->
      unit) ->
    ?on_write:
      (state ->
      writer:int * int * int ->
      loc:Loc.t ->
      vals:Chunk.t array ->
      unit) ->
    Ir.t ->
    state
  (** Runs with the IR collective's precondition as input: [run ~init:
      (precondition ir) ir]. *)

  val precondition : Ir.t -> rank:int -> index:int -> Chunk.t option
  (** The initial input buffers {!run_collective} starts from: the
      collective's precondition, [None] where it is uninitialized or past
      the collective's input buffer. *)
end

module Data : sig
  include S with type v = float array

  val random_input :
    elems_per_chunk:int -> seed:int -> rank:int -> index:int -> float array
  (** Deterministic pseudo-random input chunk (shared by {!run_random} and
      {!reference}). *)

  val run_random :
    ?slots:int -> ?elems_per_chunk:int -> ?seed:int -> Ir.t -> state
  (** Runs on pseudo-random input data (default 4 elements per chunk). *)

  val reference :
    elems_per_chunk:int ->
    seed:int ->
    Ir.t ->
    rank:int ->
    index:int ->
    float array option
  (** The numeric value the postcondition expects at an output position for
      the same pseudo-random inputs ([None] = unconstrained). *)
end

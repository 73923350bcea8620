(** A mutable binary min-heap of [int] values keyed by float priority.

    Used by the discrete-event engine (keyed by event time) and by the
    compiler's scheduler (keyed by instruction priority). Ties are broken by
    insertion order, which makes every client deterministic. Values are
    plain ints; a client with a richer payload pushes an index into its own
    table (the engine pushes flow slots and callback ids, the schedulers
    instruction ids). *)

type t

val create : unit -> t

val length : t -> int

val is_empty : t -> bool

val add : t -> priority:float -> int -> unit
(** O(log n). Elements with equal [priority] pop in insertion order. *)

val min_priority : t -> float
(** The smallest priority in the queue. O(1).
    @raise Invalid_argument on an empty queue. *)

val pop_min : t -> int
(** Removes and returns the element with the smallest priority (the
    earliest inserted among equal priorities). O(log n). Neither this nor
    {!min_priority} allocates.
    @raise Invalid_argument on an empty queue. *)

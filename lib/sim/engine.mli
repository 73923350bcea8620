(** Discrete-event engine with fluid-flow bandwidth sharing.

    Time is in seconds. Two primitives drive a simulation:

    - timed callbacks ({!at} / {!after}), and
    - {e flows}: data transfers of a given byte count across an array of
      shared resources. While a flow is active its rate is
      [min(cap, min over its resources r of capacity(r) / nflows(r))] —
      i.e. every resource is shared equally among the flows crossing it,
      and each flow is additionally capped (modelling the maximum bandwidth
      a single thread block can drive, paper §5.1). This is the minimum of
      per-resource equal shares, not a max-min fair allocation: bandwidth
      a capped flow leaves unused on a resource is not redistributed.
      Rates are recomputed whenever the set of flows on a resource
      changes, so contention between overlapping transfers is captured
      without fixed time-stepping.

    {b Cost.} A flow start or finish, or a {!set_capacity}, costs one
    pass over the flows on each touched resource (its {e fan-out}): each
    is caught up at its old rate and re-rated from cached per-resource
    shares. Flow state is held in unboxed per-slot arrays and dense
    per-resource member arrays, so a pass allocates nothing; an event
    costs O(fan-out × hops + log(queued events)). Completion events of
    slowed-down flows are rescheduled lazily (at most one extra firing),
    which keeps the event count linear in the number of flows.

    The engine is deterministic: simultaneous events fire in creation
    order. Non-finite inputs are rejected, so every run terminates. *)

type t

val create : capacities:float array -> t
(** [capacities.(r)] is the bandwidth of resource [r] in bytes/second.
    @raise Invalid_argument unless every capacity is finite and
    positive. *)

val now : t -> float

val at : t -> float -> (unit -> unit) -> unit
(** Schedule a callback at an absolute time (>= [now t]).
    @raise Invalid_argument on a NaN or past time, naming the offending
    value — a mis-ordered event would silently corrupt heap order. *)

val after : t -> float -> (unit -> unit) -> unit
(** Schedule a callback [delay] seconds from now.
    @raise Invalid_argument on a NaN or negative delay, naming the
    offending value. *)

val set_capacity : t -> int -> float -> unit
(** [set_capacity t r c] changes resource [r]'s bandwidth to [c] bytes/s
    at the current simulated time (fault injection: degradation, failure,
    restore). Active flows crossing [r] are settled at the current time and
    re-rated through the usual lazy completion rescheduling. [c = 0.] is
    allowed and stalls the flows on [r] — they make no progress and
    schedule no events until a later [set_capacity] revives them.
    @raise Invalid_argument on a bad resource id, or a NaN, infinite or
    negative capacity. *)

val capacity : t -> int -> float
(** Current bandwidth of a resource in bytes/second. *)

val start_flow :
  t -> bytes:float -> hops:int array -> cap:float -> (unit -> unit) -> unit
(** Begin a transfer; the callback fires when the last byte arrives.
    [hops] holds the resource ids the flow occupies (a resource listed
    twice counts twice towards its flow count); the engine keeps the
    array, which must not be mutated while the flow is active. [cap] is
    the per-flow rate cap in bytes/second; [infinity] leaves the rate to
    the resources. A flow with [bytes <= 0.] completes at the current time
    (still asynchronously, in event order).
    @raise Invalid_argument on a bad resource id, NaN or infinite [bytes],
    a NaN or non-positive [cap], or an infinite [cap] with no hops (its
    rate would be unbounded). *)

val run : t -> unit
(** Process events until none remain or {!stop} is called. Callbacks may
    schedule further events and flows. *)

val stop : t -> unit
(** Ask {!run} to return after the current event (used by the simulator's
    hang watchdog to abandon a stuck simulation). Pending events stay in
    the queue; a later {!run} resumes them. *)

val events_processed : t -> int
(** Number of events processed so far (a determinism/effort metric). *)

val active_flows : t -> int
(** Number of flows currently in the air. *)

val progressing_flows : t -> int
(** Number of active flows with a positive rate — i.e. excluding flows
    stalled on a zero-capacity resource. Rates are kept current on every
    capacity/population change, so a zero here means no transfer can ever
    complete without outside intervention (used by the simulator's hang
    watchdog). *)

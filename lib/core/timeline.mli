(** Execution timelines captured from the simulator.

    Pass a timeline to {!Simulator.run} to record every instruction's
    execution span (per thread block, per tile) and every point-to-point
    transfer. Export as Chrome tracing JSON — load the file in
    [chrome://tracing] or Perfetto to see exactly the kind of
    link/thread-block utilization picture the paper draws by hand in
    Fig. 6. GPUs map to processes and thread blocks to threads; transfers
    appear on a per-connection pseudo-thread. Timestamps are microseconds
    of simulated time. *)

type t

val create : unit -> t

val add :
  t ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  ts:float ->
  dur:float ->
  unit
(** [ts] and [dur] in seconds (converted to µs on export). *)

val num_events : t -> int

val to_chrome_json : t -> Json.t
(** The Chrome tracing "traceEvents" JSON document. *)

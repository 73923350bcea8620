(** Chaos campaigns: fault-severity sweeps over the algorithm registry.

    Each campaign cell simulates one registered algorithm under a
    deterministic fault plan of a given severity — one link of the
    topology degraded by that fraction ([1.0] kills it outright) — and
    reports either the completion-time degradation against the fault-free
    baseline or the watchdog's hang verdict. Cells fan out over
    {!Msccl_parallel.Pool}; results (and therefore the JSON report) are
    byte-identical for any job count. *)

type verdict =
  | Survived of { v_time_s : float; v_baseline_s : float }
      (** Completed; degradation factor is [v_time_s /. v_baseline_s]. *)
  | Hung of {
      v_at_s : float;  (** Simulated time the watchdog declared the hang. *)
      v_blocked : int;  (** Thread blocks parked on a wait. *)
      v_cycle : bool;  (** A wait-for cycle exists (dependency deadlock). *)
      v_detail : string;  (** First blocked wait, human-readable. *)
    }
  | Skipped of string  (** The algorithm does not build on the topology. *)

type entry = {
  x_algo : string;
  x_topology : string;
  x_severity : float;
  x_verdict : verdict;
}

val degradation : entry -> float option
(** [time / baseline] for survived cells. *)

val plan_for :
  seed:int ->
  severity:float ->
  topo:Msccl_topology.Topology.t ->
  Msccl_faults.Plan.t
(** The campaign's fault plan: the link [seed mod n -> seed+1 mod n]
    degraded to [1 - severity] of its capacity from kernel start, never
    restored. Severity [>= 1] kills the link (not benign: hangs are an
    acceptable outcome and are reported, not raised). *)

val run :
  ?jobs:int ->
  ?algos:string list ->
  ?severities:float list ->
  ?seed:int ->
  ?size_bytes:float ->
  ?topology:string ->
  unit ->
  (entry list, string) result
(** Runs the campaign. Defaults: every registered algorithm, severities
    [0, 0.3, 0.6, 0.9, 1.0], seed 0, 1 MiB buffer, topology ["ndv4:1"].
    [Error] only for an unparseable topology label or an unknown
    algorithm name. *)

val quick : ?jobs:int -> unit -> (entry list, string) result
(** The CI smoke campaign: ring and allpairs allreduce at 8 ranks under a
    one-link-degraded (severity 0.5) plan — benign, so any hang is a
    bug. *)

val unexpected_hangs : entry list -> entry list
(** Hung cells whose severity was below 1.0: the plan was benign
    (timing-only), so survival was expected and the hang is a finding. *)

val pp : Format.formatter -> entry list -> unit
val to_json : seed:int -> entry list -> Msccl_core.Json.t

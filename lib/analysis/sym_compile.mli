(** Symmetry-aware compilation, always certified.

    Only the representative slice of the program is traced and scheduled
    ({!Msccl_core.Replicate.run} with the algorithm's
    {!Msccl_core.Sym_hint.t}); the other ranks are instantiated by index
    arithmetic. The hint is never trusted: its rank permutation is
    certified as a DAG automorphism of the replicated IR with
    {!Symmetry.verify_candidate}, and any construction or certification
    failure silently reruns the full pipeline. The fast path changes
    compile cost, never output. *)

type outcome =
  | Replicated of Symmetry.t
      (** The replicated fast path was used; carries the certified
          symmetry (generator + orbit partition). *)
  | Fell_back of string  (** Why the full pipeline ran instead. *)

exception Sym_mismatch of string
(** Raised only in [~differential:true] mode when the replicated IR is
    not {!Msccl_core.Ir.equal} to the full-trace IR. *)

val compile :
  ?name:string ->
  ?fuse:bool ->
  ?proto:Msccl_topology.Protocol.t ->
  ?instances:int ->
  ?verify:bool ->
  ?lint:bool ->
  ?differential:bool ->
  hint:Msccl_core.Sym_hint.t ->
  Msccl_core.Collective.t ->
  (Msccl_core.Program.t -> unit) ->
  Msccl_core.Compile.report * outcome
(** Like {!Msccl_core.Compile.compile} on the full program [f], through
    the replicated fast path where the [hint] certifies.
    [~differential:true] additionally compiles [f] through the full
    pipeline and raises {!Sym_mismatch} unless the replicated IR is
    identical. *)

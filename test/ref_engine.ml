(* Reference flow engine for differential tests: the fluid-flow engine as
   it stood before the structure-of-arrays rewrite of
   [Msccl_sim.Engine] (hashtable member sets, two passes per touched
   resource, boxed flow records). It is linked only into the tests,
   which check the production engine against it.

   The body below is the old [lib/sim/engine.ml] unchanged. The shim
   restores the polymorphic, option-returning [Pqueue] it was written
   against on top of the int-valued heap: each pushed value waits in a
   side table under the int the heap carries. The heap order is the
   same. *)

module Pqueue = struct
  module H = Msccl_sim.Pqueue

  type 'a t = { heap : H.t; table : (int, 'a) Hashtbl.t; mutable next : int }

  let create () = { heap = H.create (); table = Hashtbl.create 64; next = 0 }

  let add t ~priority v =
    let k = t.next in
    t.next <- k + 1;
    Hashtbl.replace t.table k v;
    H.add t.heap ~priority k

  let pop t =
    if H.is_empty t.heap then None
    else
      let p = H.min_priority t.heap in
      let k = H.pop_min t.heap in
      let v = Hashtbl.find t.table k in
      Hashtbl.remove t.table k;
      Some (p, v)
end

(* Fluid-flow discrete-event engine. Each active flow progresses at
   min(cap, min_r capacity(r)/nflows(r)); whenever a flow starts or
   completes, flows sharing a resource with it catch up their remaining
   bytes and get a new rate.

   Completion events are rescheduled lazily: when a flow's rate drops, its
   already-scheduled (now too early) completion event is left in place —
   firing it just catches the flow up and schedules a fresh event at the
   then-current rate. Only a rate increase forces an immediate earlier
   event. This collapses any number of intermediate rate changes into at
   most one extra firing, keeping the event count linear in the number of
   flows even when thousands share a resource (e.g. a 256-GPU AllToAll all
   hammering the same NICs). Stale events are skipped via a per-flow
   version counter. *)

type flow = {
  fid : int;
  hops : int list;
  cap : float;
  on_complete : unit -> unit;
  mutable remaining : float;
  mutable rate : float;
  mutable last_update : float;
  mutable version : int;
  mutable scheduled_eta : float;
  mutable finished : bool;
}

type event =
  | Callback of (unit -> unit)
  | Flow_done of { fid : int; version : int }

type t = {
  capacities : float array;
  counts : int array;  (* active flows per resource *)
  on_resource : (int, flow) Hashtbl.t array;  (* resource -> flows, by fid *)
  flows : (int, flow) Hashtbl.t;
  events : event Pqueue.t;
  mutable now : float;
  mutable next_fid : int;
  mutable processed : int;
  mutable stopped : bool;
}

let create ~capacities =
  Array.iter
    (fun c -> if c <= 0. then invalid_arg "Engine.create: capacity <= 0")
    capacities;
  {
    capacities;
    counts = Array.make (Array.length capacities) 0;
    on_resource = Array.init (Array.length capacities) (fun _ -> Hashtbl.create 8);
    flows = Hashtbl.create 64;
    events = Pqueue.create ();
    now = 0.;
    next_fid = 0;
    processed = 0;
    stopped = false;
  }

let now t = t.now

let at t time f =
  if Float.is_nan time then invalid_arg "Engine.at: time is NaN";
  if time < t.now -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is in the past (now = %g)" time t.now);
  Pqueue.add t.events ~priority:(Float.max time t.now) (Callback f)

let after t delay f =
  if Float.is_nan delay then invalid_arg "Engine.after: delay is NaN";
  if delay < 0. then
    invalid_arg
      (Printf.sprintf "Engine.after: negative delay %g (now = %g)" delay t.now);
  at t (t.now +. delay) f

let rate_of t flow =
  let share h = t.capacities.(h) /. float_of_int t.counts.(h) in
  List.fold_left (fun acc h -> Float.min acc (share h)) flow.cap flow.hops

(* Bring a flow's [remaining] up to date with the current time. *)
let catch_up t flow =
  let dt = t.now -. flow.last_update in
  if dt > 0. then begin
    flow.remaining <- Float.max 0. (flow.remaining -. (flow.rate *. dt));
    flow.last_update <- t.now
  end

(* A stalled flow (some resource degraded to zero capacity) gets no
   completion event at all — scheduling one at eta = infinity would fire a
   useless event that reschedules itself forever. A later capacity increase
   revives it through [maybe_reschedule]. *)
let schedule_completion t flow =
  flow.version <- flow.version + 1;
  if flow.rate > 0. then begin
    let eta = t.now +. (flow.remaining /. flow.rate) in
    flow.scheduled_eta <- eta;
    Pqueue.add t.events ~priority:eta
      (Flow_done { fid = flow.fid; version = flow.version })
  end
  else flow.scheduled_eta <- infinity

(* After a rate change, only reschedule when the flow now finishes earlier
   than its pending event; otherwise let the pending event fire early and
   resynchronize then. *)
let maybe_reschedule t flow =
  if flow.rate > 0. then begin
    let eta = t.now +. (flow.remaining /. flow.rate) in
    if eta < flow.scheduled_eta -. 1e-15 then schedule_completion t flow
  end

(* Visit every flow sharing a resource with [hops]. Flows on two shared
   resources are visited twice, which is harmless: catch-up and rate
   reassignment are both idempotent at a fixed time. *)
let iter_affected t hops f =
  List.iter (fun h -> Hashtbl.iter (fun _ fl -> f fl) t.on_resource.(h)) hops

let reassign_rates t hops =
  iter_affected t hops (fun f ->
      if not f.finished then begin
        let r = rate_of t f in
        if r <> f.rate then begin
          f.rate <- r;
          maybe_reschedule t f
        end
      end)

(* Re-rate a resource mid-simulation (fault injection: link degradation,
   failure, restore). Flows crossing it are settled at the current time
   first, then re-rated through the ordinary lazy-rescheduling path — a
   capacity drop leaves pending completion events to fire early and
   resynchronize; a capacity raise forces earlier events where needed. *)
let set_capacity t rid capacity =
  if rid < 0 || rid >= Array.length t.capacities then
    invalid_arg
      (Printf.sprintf "Engine.set_capacity: bad resource id %d (have %d)" rid
         (Array.length t.capacities));
  if Float.is_nan capacity || capacity < 0. then
    invalid_arg
      (Printf.sprintf "Engine.set_capacity: bad capacity %g for resource %d"
         capacity rid);
  if capacity <> t.capacities.(rid) then begin
    Hashtbl.iter
      (fun _ f -> if not f.finished then catch_up t f)
      t.on_resource.(rid);
    t.capacities.(rid) <- capacity;
    reassign_rates t [ rid ]
  end

let capacity t rid =
  if rid < 0 || rid >= Array.length t.capacities then
    invalid_arg
      (Printf.sprintf "Engine.capacity: bad resource id %d (have %d)" rid
         (Array.length t.capacities));
  t.capacities.(rid)

let start_flow t ~bytes ~hops ~cap on_complete =
  if cap <= 0. then invalid_arg "Engine.start_flow: cap <= 0";
  List.iter
    (fun h ->
      if h < 0 || h >= Array.length t.capacities then
        invalid_arg "Engine.start_flow: bad resource id")
    hops;
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  let flow =
    {
      fid;
      hops;
      cap;
      on_complete;
      remaining = Float.max 0. bytes;
      rate = 0.;
      last_update = t.now;
      version = 0;
      scheduled_eta = infinity;
      finished = false;
    }
  in
  (* Settle everyone sharing a resource before the counts change. *)
  iter_affected t hops (fun f -> catch_up t f);
  List.iter (fun h -> t.counts.(h) <- t.counts.(h) + 1) hops;
  List.iter (fun h -> Hashtbl.replace t.on_resource.(h) fid flow) hops;
  Hashtbl.add t.flows fid flow;
  (* The new flow's rate must be final before reassignment sweeps the
     shared resources: it is already in the tables, and entering with a
     placeholder rate would make [reassign_rates] treat it as a rate
     change and schedule a completion of its own — one stale event per
     flow start on top of the real one below. *)
  flow.rate <- rate_of t flow;
  reassign_rates t hops;
  schedule_completion t flow

let finish_flow t flow =
  flow.finished <- true;
  Hashtbl.remove t.flows flow.fid;
  iter_affected t flow.hops (fun f -> if not f.finished then catch_up t f);
  List.iter (fun h -> t.counts.(h) <- t.counts.(h) - 1) flow.hops;
  List.iter (fun h -> Hashtbl.remove t.on_resource.(h) flow.fid) flow.hops;
  reassign_rates t flow.hops;
  flow.on_complete ()

(* Completion times are computed as remaining/rate, so a tiny float residue
   can survive; anything below one byte is considered delivered. *)
let residue = 1.0

let handle t = function
  | Callback f -> f ()
  | Flow_done { fid; version } -> (
      match Hashtbl.find_opt t.flows fid with
      | None -> ()  (* already finished *)
      | Some flow ->
          if flow.version = version then begin
            catch_up t flow;
            if flow.remaining <= residue then finish_flow t flow
            else schedule_completion t flow
          end)

let stop t = t.stopped <- true

let run t =
  t.stopped <- false;
  let rec loop () =
    if not t.stopped then
      match Pqueue.pop t.events with
      | None -> ()
      | Some (time, ev) ->
          if time > t.now then t.now <- time;
          t.processed <- t.processed + 1;
          handle t ev;
          loop ()
  in
  loop ()

let events_processed t = t.processed

let active_flows t = Hashtbl.length t.flows

let progressing_flows t =
  Hashtbl.fold
    (fun _ f n -> if (not f.finished) && f.rate > 0. then n + 1 else n)
    t.flows 0

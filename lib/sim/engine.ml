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
   hammering the same NICs). Stale events are skipped via a per-slot
   version counter.

   Data layout. A start or finish visits every flow on each touched
   resource, so the visit is the unit of cost and allocates nothing:
   - flows live in numbered slots, their float state in unboxed
     [float array]s (structure of arrays), recycled through a free list;
     a slot's version keeps rising across reuse, so a completion event
     left over from the slot's previous flow never matches;
   - each resource keeps a dense member array of the slots crossing it,
     with per-hop back-pointers for O(1) swap-removal, and a cached share
     capacity/count refreshed whenever the count or capacity changes;
   - the event heap holds plain ints: a completion is (version, slot)
     packed into a non-negative int, a timed callback the complement of
     its index in a callback pool.
   Floats never cross a function boundary on the hot path: an out-of-line
   OCaml call boxes float arguments and results. *)

let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let version_mask = (1 lsl 32) - 1
let flow_event slot version =
  ((version land version_mask) lsl slot_bits) lor slot

(* Completion times are computed as remaining/rate, so a tiny float residue
   can survive; anything below one byte is considered delivered. *)
let residue = 1.0

let noop () = ()

type t = {
  (* Resources. *)
  capacities : float array;
  counts : int array;  (* active flows per resource, one per hop occurrence *)
  shares : float array;  (* capacities.(r) /. counts.(r) while counts.(r) > 0 *)
  members : int array array;
      (* resource -> (slot, hop index) pairs, interleaved; a resource that
         appears twice in one route holds that flow once *)
  nmembers : int array;
  (* Flow slots. *)
  mutable remaining : float array;
  mutable rate : float array;
  mutable last_update : float array;
  mutable eta : float array;  (* time of the slot's pending completion *)
  mutable cap : float array;
  mutable version : int array;
  mutable hops : int array array;
  mutable backptr : int array array;
      (* per hop: position in that resource's members, or -1 on a
         repeated occurrence *)
  mutable live : bool array;
  mutable on_complete : (unit -> unit) array;
  mutable free_slots : int array;
  mutable nfree_slots : int;
  mutable nslots : int;  (* slots [0, nslots) have been handed out *)
  mutable active : int;
  (* Timed callbacks. *)
  mutable callbacks : (unit -> unit) array;
  mutable free_cbs : int array;
  mutable nfree_cbs : int;
  mutable ncbs : int;
  events : int Pqueue.t;
  clock : float array;
      (* [| now |]: a float field of this mixed record would be boxed on
         every write *)
  mutable processed : int;
  mutable stopped : bool;
}

let create ~capacities =
  Array.iteri
    (fun r c ->
      if not (Float.is_finite c) || c <= 0. then
        invalid_arg
          (Printf.sprintf "Engine.create: bad capacity %g for resource %d" c r))
    capacities;
  let n = Array.length capacities in
  let slots = 16 in
  {
    capacities = Array.copy capacities;
    counts = Array.make n 0;
    shares = Array.make n 0.;
    members = Array.make n [||];
    nmembers = Array.make n 0;
    remaining = Array.make slots 0.;
    rate = Array.make slots 0.;
    last_update = Array.make slots 0.;
    eta = Array.make slots 0.;
    cap = Array.make slots 0.;
    version = Array.make slots 0;
    hops = Array.make slots [||];
    backptr = Array.make slots [||];
    live = Array.make slots false;
    on_complete = Array.make slots noop;
    free_slots = Array.make slots 0;
    nfree_slots = 0;
    nslots = 0;
    active = 0;
    callbacks = Array.make slots noop;
    free_cbs = Array.make slots 0;
    nfree_cbs = 0;
    ncbs = 0;
    events = Pqueue.create ();
    clock = [| 0. |];
    processed = 0;
    stopped = false;
  }

let[@inline] now t = t.clock.(0)

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline] push_callback t time f =
  let i =
    if t.nfree_cbs > 0 then begin
      t.nfree_cbs <- t.nfree_cbs - 1;
      t.free_cbs.(t.nfree_cbs)
    end
    else begin
      if t.ncbs = Array.length t.callbacks then begin
        t.callbacks <- grow t.callbacks noop;
        t.free_cbs <- grow t.free_cbs 0
      end;
      t.ncbs <- t.ncbs + 1;
      t.ncbs - 1
    end
  in
  t.callbacks.(i) <- f;
  Pqueue.add t.events ~priority:time (lnot i)

let at t time f =
  if Float.is_nan time then invalid_arg "Engine.at: time is NaN";
  let now = t.clock.(0) in
  if time < now -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.at: time %g is in the past (now = %g)" time now);
  push_callback t (if time > now then time else now) f

let after t delay f =
  if Float.is_nan delay then invalid_arg "Engine.after: delay is NaN";
  if delay < 0. then
    invalid_arg
      (Printf.sprintf "Engine.after: negative delay %g (now = %g)" delay
         t.clock.(0));
  push_callback t (t.clock.(0) +. delay) f

(* A stalled flow (some resource degraded to zero capacity) gets no
   completion event at all — scheduling one at eta = infinity would fire a
   useless event that reschedules itself forever. A later capacity increase
   revives it through the rate-increase path of [visit]. *)
let schedule_completion t s =
  let v = t.version.(s) + 1 in
  t.version.(s) <- v;
  let r = t.rate.(s) in
  if r > 0. then begin
    let eta = t.clock.(0) +. (t.remaining.(s) /. r) in
    t.eta.(s) <- eta;
    Pqueue.add t.events ~priority:eta (flow_event s v)
  end
  else t.eta.(s) <- infinity

(* Bring slot [s]'s remaining bytes up to date at the rate it has had
   since its last update. *)
let catch_up t s =
  let now = t.clock.(0) in
  let dt = now -. t.last_update.(s) in
  if dt > 0. then begin
    let left = t.remaining.(s) -. (t.rate.(s) *. dt) in
    t.remaining.(s) <- (if left > 0. then left else 0.);
    t.last_update.(s) <- now
  end

(* min(cap, shares of the slot's hops); inlined so the float is not
   boxed. *)
let[@inline] rate_of t s =
  let hops = t.hops.(s) in
  let r = ref t.cap.(s) in
  for j = 0 to Array.length hops - 1 do
    let share = t.shares.(hops.(j)) in
    if share < !r then r := share
  done;
  !r

(* Catch slot [s] up at its old rate, then give it the current rate.
   After a rate change, only reschedule when the flow now finishes earlier
   than its pending event; otherwise let the pending event fire early and
   resynchronize then. Visiting a flow twice at one instant is harmless:
   the second visit changes nothing. *)
let visit t s =
  catch_up t s;
  let r = rate_of t s in
  if r <> t.rate.(s) then begin
    t.rate.(s) <- r;
    if r > 0. then begin
      let eta = t.clock.(0) +. (t.remaining.(s) /. r) in
      if eta < t.eta.(s) -. 1e-15 then schedule_completion t s
    end
  end

let refresh_share t h =
  let c = t.counts.(h) in
  if c > 0 then t.shares.(h) <- t.capacities.(h) /. float_of_int c

let visit_members t h =
  let m = t.members.(h) in
  for i = 0 to t.nmembers.(h) - 1 do
    visit t m.(2 * i)
  done

(* Slot [s]'s hops, each distinct resource once (the first occurrence
   holds the back-pointer). *)
let refresh_shares t s =
  let hops = t.hops.(s) and bp = t.backptr.(s) in
  for j = 0 to Array.length hops - 1 do
    if bp.(j) >= 0 then refresh_share t hops.(j)
  done

let visit_hops t s =
  let hops = t.hops.(s) and bp = t.backptr.(s) in
  for j = 0 to Array.length hops - 1 do
    if bp.(j) >= 0 then visit_members t hops.(j)
  done

let add_member t h s j =
  let n = t.nmembers.(h) in
  if 2 * n = Array.length t.members.(h) then
    t.members.(h) <-
      (if n = 0 then Array.make 8 0 else grow t.members.(h) 0);
  let m = t.members.(h) in
  m.(2 * n) <- s;
  m.((2 * n) + 1) <- j;
  t.nmembers.(h) <- n + 1;
  n

let remove_member t h i =
  let m = t.members.(h) in
  let last = t.nmembers.(h) - 1 in
  if i <> last then begin
    let s' = m.(2 * last) and j' = m.((2 * last) + 1) in
    m.(2 * i) <- s';
    m.((2 * i) + 1) <- j';
    t.backptr.(s').(j') <- i
  end;
  t.nmembers.(h) <- last

(* Re-rate a resource mid-simulation (fault injection: link degradation,
   failure, restore). Flows crossing it are settled at the current time at
   their old rate, then re-rated through the ordinary lazy-rescheduling
   path — a capacity drop leaves pending completion events to fire early
   and resynchronize; a capacity raise forces earlier events where
   needed. *)
let set_capacity t rid capacity =
  if rid < 0 || rid >= Array.length t.capacities then
    invalid_arg
      (Printf.sprintf "Engine.set_capacity: bad resource id %d (have %d)" rid
         (Array.length t.capacities));
  if not (Float.is_finite capacity) || capacity < 0. then
    invalid_arg
      (Printf.sprintf "Engine.set_capacity: bad capacity %g for resource %d"
         capacity rid);
  if capacity <> t.capacities.(rid) then begin
    t.capacities.(rid) <- capacity;
    refresh_share t rid;
    visit_members t rid
  end

let capacity t rid =
  if rid < 0 || rid >= Array.length t.capacities then
    invalid_arg
      (Printf.sprintf "Engine.capacity: bad resource id %d (have %d)" rid
         (Array.length t.capacities));
  t.capacities.(rid)

let alloc_slot t =
  if t.nfree_slots > 0 then begin
    t.nfree_slots <- t.nfree_slots - 1;
    t.free_slots.(t.nfree_slots)
  end
  else begin
    if t.nslots = Array.length t.remaining then begin
      if t.nslots > slot_mask then failwith "Engine: too many active flows";
      t.remaining <- grow t.remaining 0.;
      t.rate <- grow t.rate 0.;
      t.last_update <- grow t.last_update 0.;
      t.eta <- grow t.eta 0.;
      t.cap <- grow t.cap 0.;
      t.version <- grow t.version 0;
      t.hops <- grow t.hops [||];
      t.backptr <- grow t.backptr [||];
      t.live <- grow t.live false;
      t.on_complete <- grow t.on_complete noop;
      t.free_slots <- grow t.free_slots 0
    end;
    t.nslots <- t.nslots + 1;
    t.nslots - 1
  end

let start_flow t ~bytes ~hops ~cap on_complete =
  if not (Float.is_finite bytes) then
    invalid_arg (Printf.sprintf "Engine.start_flow: bytes %g not finite" bytes);
  if Float.is_nan cap || cap <= 0. then
    invalid_arg (Printf.sprintf "Engine.start_flow: bad cap %g" cap);
  let n = Array.length hops in
  if n = 0 && cap = infinity then
    invalid_arg "Engine.start_flow: infinite cap on a flow with no hops";
  for j = 0 to n - 1 do
    if hops.(j) < 0 || hops.(j) >= Array.length t.capacities then
      invalid_arg "Engine.start_flow: bad resource id"
  done;
  let s = alloc_slot t in
  let now = t.clock.(0) in
  t.remaining.(s) <- (if bytes > 0. then bytes else 0.);
  t.last_update.(s) <- now;
  t.eta.(s) <- infinity;
  t.cap.(s) <- cap;
  t.hops.(s) <- hops;
  t.live.(s) <- true;
  t.on_complete.(s) <- on_complete;
  t.active <- t.active + 1;
  let bp =
    if Array.length t.backptr.(s) = n then t.backptr.(s)
    else begin
      let bp = Array.make n 0 in
      t.backptr.(s) <- bp;
      bp
    end
  in
  for j = 0 to n - 1 do
    let h = hops.(j) in
    t.counts.(h) <- t.counts.(h) + 1;
    let repeated = ref false in
    for k = 0 to j - 1 do
      if hops.(k) = h then repeated := true
    done;
    bp.(j) <- (if !repeated then -1 else add_member t h s j)
  done;
  (* The new flow's rate must be final before the members are re-rated:
     it is already one of them, and entering with a placeholder rate
     would make [visit] treat it as a rate change and schedule a
     completion of its own — one stale event per flow start on top of the
     real one below. *)
  refresh_shares t s;
  t.rate.(s) <- rate_of t s;
  visit_hops t s;
  schedule_completion t s

let finish_flow t s =
  t.live.(s) <- false;
  t.active <- t.active - 1;
  let hops = t.hops.(s) and bp = t.backptr.(s) in
  for j = 0 to Array.length hops - 1 do
    let h = hops.(j) in
    t.counts.(h) <- t.counts.(h) - 1;
    if bp.(j) >= 0 then remove_member t h bp.(j)
  done;
  refresh_shares t s;
  visit_hops t s;
  let k = t.on_complete.(s) in
  t.on_complete.(s) <- noop;
  t.free_slots.(t.nfree_slots) <- s;
  t.nfree_slots <- t.nfree_slots + 1;
  k ()

(* A completion fires: catch the flow up and finish it, or schedule the
   next firing at its current rate. A flow also finishes when its next
   firing could not advance the clock (remaining/rate below the clock's
   float resolution): waiting would refire at the same instant forever. *)
let handle_completion t ev =
  let s = ev land slot_mask in
  if t.version.(s) land version_mask = ev lsr slot_bits then begin
    catch_up t s;
    let now = t.clock.(0) and r = t.rate.(s) and left = t.remaining.(s) in
    if left <= residue || (r > 0. && now +. (left /. r) <= now) then
      finish_flow t s
    else schedule_completion t s
  end

let handle_callback t i =
  let f = t.callbacks.(i) in
  t.callbacks.(i) <- noop;
  t.free_cbs.(t.nfree_cbs) <- i;
  t.nfree_cbs <- t.nfree_cbs + 1;
  f ()

let stop t = t.stopped <- true

let run t =
  t.stopped <- false;
  while (not t.stopped) && not (Pqueue.is_empty t.events) do
    let time = Pqueue.min_priority t.events in
    let ev = Pqueue.pop_min t.events in
    if time > t.clock.(0) then t.clock.(0) <- time;
    t.processed <- t.processed + 1;
    if ev >= 0 then handle_completion t ev else handle_callback t (lnot ev)
  done

let events_processed t = t.processed

let active_flows t = t.active

let progressing_flows t =
  let n = ref 0 in
  for s = 0 to t.nslots - 1 do
    if t.live.(s) && t.rate.(s) > 0. then incr n
  done;
  !n

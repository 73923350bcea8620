(* Array-based binary min-heap of ints in structure-of-arrays form:
   priorities live in a flat float array (unboxed), tie-breaking insertion
   sequence numbers and values in int arrays, so sift comparisons touch no
   pointers, writes need no write barrier and pushes allocate nothing. The
   heap sits on the hot path of both the discrete-event engine (every
   event) and the scheduler (every instruction); clients that need richer
   payloads push an index into their own table.

   Sifts are hole-based: the moving entry is held in locals while the
   entries it passes shift one level, so each level costs one write per
   array instead of a swap.

   Every key (priority, seq) is unique, so the pop order is fully
   determined by the keys: any correct heap pops the same sequence. *)

type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable values : int array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 16

let create () =
  {
    prio = Array.make initial_capacity 0.;
    seq = Array.make initial_capacity 0;
    values = Array.make initial_capacity 0;
    size = 0;
    next_seq = 0;
  }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let cap = 2 * Array.length t.prio in
  let prio = Array.make cap 0. in
  Array.blit t.prio 0 prio 0 t.size;
  t.prio <- prio;
  let seq = Array.make cap 0 in
  Array.blit t.seq 0 seq 0 t.size;
  t.seq <- seq;
  let values = Array.make cap 0 in
  Array.blit t.values 0 values 0 t.size;
  t.values <- values

(* Moves the entry at [i] up to its place. The entry is read back from
   the arrays rather than passed in, so its float priority never crosses
   a call boxed. *)
let sift_up t i =
  let prio = t.prio and seq = t.seq and values = t.values in
  let p = prio.(i) and s = seq.(i) and v = values.(i) in
  let hole = ref i in
  let moving = ref true in
  while !moving && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let pp = prio.(parent) in
    if p < pp || (p = pp && s < seq.(parent)) then begin
      prio.(!hole) <- pp;
      seq.(!hole) <- seq.(parent);
      values.(!hole) <- values.(parent);
      hole := parent
    end
    else moving := false
  done;
  prio.(!hole) <- p;
  seq.(!hole) <- s;
  values.(!hole) <- v

(* Re-inserts the entry at [last] (just cut off the end) from the root
   down, over the live entries [0, last). *)
let sift_down_last t last =
  let prio = t.prio and seq = t.seq and values = t.values in
  let p = prio.(last) and s = seq.(last) and v = values.(last) in
  let hole = ref 0 in
  let moving = ref true in
  while !moving do
    let l = (2 * !hole) + 1 in
    if l >= last then moving := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < last
          && (prio.(r) < prio.(l) || (prio.(r) = prio.(l) && seq.(r) < seq.(l)))
        then r
        else l
      in
      let pc = prio.(c) in
      if pc < p || (pc = p && seq.(c) < s) then begin
        prio.(!hole) <- pc;
        seq.(!hole) <- seq.(c);
        values.(!hole) <- values.(c);
        hole := c
      end
      else moving := false
    end
  done;
  prio.(!hole) <- p;
  seq.(!hole) <- s;
  values.(!hole) <- v

(* [add] and [min_priority] are inlined so that their float priority
   crosses the call unboxed: an out-of-line call would box it, one
   allocation per push or pop on the engine's hot path. *)
let[@inline] add t ~priority value =
  if t.size = Array.length t.prio then grow t;
  let i = t.size in
  t.prio.(i) <- priority;
  t.seq.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.values.(i) <- value;
  t.size <- i + 1;
  sift_up t i

let empty name = invalid_arg ("Pqueue." ^ name ^ ": empty queue")

let[@inline] min_priority t =
  if t.size = 0 then empty "min_priority" else t.prio.(0)

let pop_min t =
  if t.size = 0 then empty "pop_min";
  let v = t.values.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down_last t last;
  v

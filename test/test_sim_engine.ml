(* Discrete-event engine and priority queue tests. *)

module E = Msccl_sim.Engine
module P = Msccl_sim.Pqueue
module Q = QCheck

(* Pops every entry as (priority, value), in heap order. *)
let drain q =
  let rec go acc =
    if P.is_empty q then List.rev acc
    else
      let p = P.min_priority q in
      go ((p, P.pop_min q) :: acc)
  in
  go []

let test_pqueue_order () =
  let q = P.create () in
  List.iter (fun (p, v) -> P.add q ~priority:p v)
    [ (3., 30); (1., 10); (2., 20); (1., 11) ];
  Alcotest.(check (list int)) "sorted, stable ties"
    [ 10; 11; 20; 30 ] (List.map snd (drain q));
  Alcotest.(check bool) "empty" true (P.is_empty q);
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Pqueue.pop_min: empty queue") (fun () ->
      ignore (P.pop_min q))

let prop_pqueue_sorts =
  Testutil.qtest "pqueue sorts any input"
    Q.(list (pair (float_range 0. 1000.) small_int))
    (fun entries ->
      let q = P.create () in
      List.iter (fun (p, v) -> P.add q ~priority:p v) entries;
      List.map fst (drain q) = List.sort compare (List.map fst entries))

(* Differential against a sorted-list model on (priority, seq): an
   interleaving of pushes, pops and peeks, with priorities drawn from a
   small set so that ties (broken by insertion order) are frequent. The
   model pops the least (priority, seq) pair; every pop and peek must
   agree, including the errors on an empty queue. *)
type pq_op = Push of float * int | Pop | Peek

let pq_op_gen =
  Q.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun p v -> Push (float_of_int p, v))
            (int_range 0 4) (int_range 0 1000) );
        (2, return Pop);
        (1, return Peek);
      ])

let pq_op_print = function
  | Push (p, v) -> Printf.sprintf "push %g %d" p v
  | Pop -> "pop"
  | Peek -> "peek"

let prop_pqueue_model =
  Testutil.qtest ~count:300 "pqueue matches a sorted-list model"
    Q.(
      make ~print:(Print.list pq_op_print)
        Gen.(list_size (int_range 0 200) pq_op_gen))
    (fun ops ->
      let q = P.create () in
      let model = ref [] (* (priority, seq, value), ascending *) in
      let seq = ref 0 in
      let outcome f = try Ok (f ()) with Invalid_argument m -> Error m in
      List.for_all
        (fun op ->
          match op with
          | Push (p, v) ->
              P.add q ~priority:p v;
              model := List.merge compare !model [ (p, !seq, v) ];
              incr seq;
              P.length q = List.length !model
          | Pop -> (
              let got = outcome (fun () -> P.pop_min q) in
              match !model with
              | [] -> got = Error "Pqueue.pop_min: empty queue"
              | (_, _, v) :: rest ->
                  model := rest;
                  got = Ok v)
          | Peek -> (
              let got = outcome (fun () -> P.min_priority q) in
              match !model with
              | [] -> got = Error "Pqueue.min_priority: empty queue"
              | (p, _, _) :: _ -> got = Ok p))
        ops
      && List.map (fun (_, _, v) -> v) !model = List.map snd (drain q))

let test_single_flow_timing () =
  let eng = E.create ~capacities:[| 100. |] in
  let done_at = ref 0. in
  E.start_flow eng ~bytes:1000. ~hops:[| 0 |] ~cap:1000. (fun () ->
      done_at := E.now eng);
  E.run eng;
  Alcotest.(check (float 1e-6)) "capacity bound" 10. !done_at

let test_cap_bound () =
  let eng = E.create ~capacities:[| 1000. |] in
  let done_at = ref 0. in
  E.start_flow eng ~bytes:1000. ~hops:[| 0 |] ~cap:10. (fun () ->
      done_at := E.now eng);
  E.run eng;
  Alcotest.(check (float 1e-6)) "per-flow cap" 100. !done_at

let test_fair_sharing () =
  (* Two identical flows on one resource take twice as long as one. *)
  let eng = E.create ~capacities:[| 100. |] in
  let times = ref [] in
  for _ = 1 to 2 do
    E.start_flow eng ~bytes:500. ~hops:[| 0 |] ~cap:1000. (fun () ->
        times := E.now eng :: !times)
  done;
  E.run eng;
  List.iter
    (fun t -> Alcotest.(check (float 1e-4)) "shared" 10. t)
    !times

let test_staggered_flows () =
  (* Flow B starts halfway through flow A: A runs alone (rate 100) for 5s,
     then both share (50 each). A has 0 left at t=10... A: 1000 bytes: 5s
     alone = 500, then 500 at 50 = 10s more -> done at 15. B: 500 bytes at
     50 -> 10s, but after A finishes B gets 100 again. B remaining at t=15:
     500 - 10*50 = 0 -> B also ~15. *)
  let eng = E.create ~capacities:[| 100. |] in
  let a_done = ref 0. and b_done = ref 0. in
  E.start_flow eng ~bytes:1000. ~hops:[| 0 |] ~cap:1000. (fun () ->
      a_done := E.now eng);
  E.after eng 5. (fun () ->
      E.start_flow eng ~bytes:500. ~hops:[| 0 |] ~cap:1000. (fun () ->
          b_done := E.now eng));
  E.run eng;
  Alcotest.(check (float 1e-3)) "A at 15" 15. !a_done;
  Alcotest.(check (float 1e-3)) "B at 15" 15. !b_done

let test_multi_hop_bottleneck () =
  (* A flow crossing a fast and a slow resource is bound by the slow one. *)
  let eng = E.create ~capacities:[| 1000.; 10. |] in
  let done_at = ref 0. in
  E.start_flow eng ~bytes:100. ~hops:[| 0; 1 |] ~cap:1000. (fun () ->
      done_at := E.now eng);
  E.run eng;
  Alcotest.(check (float 1e-6)) "bottleneck" 10. !done_at

let test_callbacks_ordered () =
  let eng = E.create ~capacities:[| 1. |] in
  let log = ref [] in
  E.at eng 2. (fun () -> log := 2 :: !log);
  E.at eng 1. (fun () -> log := 1 :: !log);
  E.after eng 3. (fun () -> log := 3 :: !log);
  E.run eng;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_zero_byte_flow () =
  let eng = E.create ~capacities:[| 1. |] in
  let fired = ref false in
  E.start_flow eng ~bytes:0. ~hops:[| 0 |] ~cap:1. (fun () -> fired := true);
  E.run eng;
  Alcotest.(check bool) "completes" true !fired;
  Alcotest.(check int) "no active flows" 0 (E.active_flows eng)

(* Churn test for the lazy rescheduling: N staggered flows on one resource
   must finish exactly when the fluid model says (total work divided by
   capacity once saturated). *)
let prop_churn_conserves_work =
  Testutil.qtest ~count:30 "fluid model conserves work"
    Q.(list_of_size (Q.Gen.int_range 1 10) (Q.int_range 1 20))
    (fun sizes ->
      let eng = E.create ~capacities:[| 10. |] in
      let last = ref 0. in
      List.iteri
        (fun i bytes ->
          E.after eng (float_of_int i) (fun () ->
              E.start_flow eng ~bytes:(float_of_int (bytes * 100)) ~hops:[| 0 |]
                ~cap:1000. (fun () -> last := E.now eng)))
        sizes;
      E.run eng;
      (* Lower bound: total bytes / capacity. Upper bound: that plus the
         last injection time. *)
      let total = float_of_int (100 * List.fold_left ( + ) 0 sizes) in
      let lo = total /. 10. in
      let hi = lo +. float_of_int (List.length sizes) +. 1e-6 in
      !last >= lo -. 1e-4 && !last <= hi)

(* ------------------------------------------------------------------ *)
(* Differential: the engine against the reference engine              *)
(* ------------------------------------------------------------------ *)

(* The same scenario runs on both engines through this record. *)
type 'e api = {
  create : float array -> 'e;
  start :
    'e -> bytes:float -> hops:int array -> cap:float -> (unit -> unit) -> unit;
  after : 'e -> float -> (unit -> unit) -> unit;
  set_capacity : 'e -> int -> float -> unit;
  now : 'e -> float;
  run : 'e -> unit;
  active : 'e -> int;
  progressing : 'e -> int;
}

let engine_api =
  {
    create = (fun capacities -> E.create ~capacities);
    start = E.start_flow;
    after = E.after;
    set_capacity = E.set_capacity;
    now = E.now;
    run = E.run;
    active = E.active_flows;
    progressing = E.progressing_flows;
  }

let ref_api =
  let module R = Ref_engine in
  {
    create = (fun capacities -> R.create ~capacities:(Array.copy capacities));
    start =
      (fun e ~bytes ~hops ~cap k ->
        R.start_flow e ~bytes ~hops:(Array.to_list hops) ~cap k);
    after = R.after;
    set_capacity = R.set_capacity;
    now = R.now;
    run = R.run;
    active = R.active_flows;
    progressing = R.progressing_flows;
  }

type flow_spec = {
  delay : float;  (* start this long after its parent event *)
  bytes : float;
  hops : int array;
  cap : float;
  next : flow_spec option;  (* started from this flow's completion *)
}

type scenario = {
  caps : float array;
  flows : flow_spec list;
  cap_events : (float * int * float) list;  (* time, resource, capacity *)
}

(* Flows numbered in spec pre-order, so both engines report completion
   times under the same ids whatever order the flows run in. *)
type node = { id : int; spec : flow_spec; child : node option }

let number flows =
  let n = ref 0 in
  let rec go f =
    let id = !n in
    incr n;
    { id; spec = f; child = Option.map go f.next }
  in
  let nodes = List.map go flows in
  (nodes, !n)

(* Runs [sc]; returns each flow's completion time (NaN if it never
   completed) and the final active/progressing flow counts. *)
let run_scenario api sc =
  let e = api.create sc.caps in
  let nodes, n = number sc.flows in
  let times = Array.make n Float.nan in
  let rec launch nd =
    let f = nd.spec in
    let go () =
      api.start e ~bytes:f.bytes ~hops:f.hops ~cap:f.cap (fun () ->
          times.(nd.id) <- api.now e;
          Option.iter launch nd.child)
    in
    if f.delay = 0. then go () else api.after e f.delay go
  in
  List.iter
    (fun (t, rid, c) -> api.after e t (fun () -> api.set_capacity e rid c))
    sc.cap_events;
  List.iter launch nodes;
  api.run e;
  (times, api.active e, api.progressing e)

let close_rel a b =
  (Float.is_nan a && Float.is_nan b) || a = b
  || Float.abs (a -. b) <= 1e-7 *. Float.abs a

let agree sc =
  let t1, a1, p1 = run_scenario engine_api sc in
  let t2, a2, p2 = run_scenario ref_api sc in
  let ok = ref (a1 = a2 && p1 = p2) in
  Array.iteri
    (fun i t ->
      if not (close_rel t2.(i) t) then begin
        ok := false;
        Printf.printf "flow %d: engine %h, reference %h\n" i t t2.(i)
      end)
    t1;
  if a1 <> a2 || p1 <> p2 then
    Printf.printf "active %d/%d, progressing %d/%d\n" a1 a2 p1 p2;
  !ok

let gen_scenario =
  let open Q.Gen in
  int_range 1 4 >>= fun nres ->
  (* [scaled u lo hi]: a multiple of [u] in [lo*u, hi*u]. *)
  let scaled u lo hi = map (fun k -> float_of_int k *. u) (int_range lo hi) in
  let gen_flow next =
    let* delay = frequency [ (2, return 0.); (3, scaled 0.01 1 50) ] in
    let* bytes = frequency [ (1, return 0.); (6, scaled 1e7 1 100) ] in
    let* hops = array_size (int_range 1 3) (int_range 0 (nres - 1)) in
    let* cap = frequency [ (1, return infinity); (3, scaled 1e9 1 50) ] in
    let+ next = next in
    { delay; bytes; hops; cap; next }
  in
  let leaf = gen_flow (return None) in
  let* caps = array_repeat nres (scaled 1e9 1 100) in
  let* flows =
    list_size (int_range 1 12)
      (gen_flow (frequency [ (3, return None); (1, map Option.some leaf) ]))
  in
  let+ cap_events =
    list_size (int_range 0 2)
      (let* rid = int_range 0 (nres - 1) in
       let* t0 = scaled 0.01 0 50 in
       let* d = scaled 0.01 1 50 in
       let* c = scaled 1e9 1 100 in
       oneofl
         [ [ (t0, rid, 0.); (t0 +. d, rid, c) ]; [ (t0, rid, c) ] ])
  in
  { caps; flows; cap_events = List.concat cap_events }

let print_scenario sc =
  let rec flow f =
    Printf.sprintf "{after %g; %g B; hops [%s]; cap %g%s}" f.delay f.bytes
      (String.concat ";" (Array.to_list (Array.map string_of_int f.hops)))
      f.cap
      (match f.next with None -> "" | Some c -> "; then " ^ flow c)
  in
  Printf.sprintf "caps [%s]\nflows %s\ncapacity events %s"
    (String.concat ";"
       (Array.to_list (Array.map (Printf.sprintf "%g") sc.caps)))
    (String.concat "\n  " (List.map flow sc.flows))
    (String.concat "; "
       (List.map
          (fun (t, r, c) -> Printf.sprintf "t=%g r%d:=%g" t r c)
          sc.cap_events))

let prop_matches_reference =
  Testutil.qtest ~count:300 "engine = reference engine"
    (Q.make ~print:print_scenario gen_scenario)
    agree

(* Fan-out 256: a dgx2 NVSwitch port (150 GB/s, 20 GB/s per thread
   block) with 256 flows in the air at once, each completion starting a
   replacement until 1024 flows have run. *)
let test_fanout_256_churn () =
  let flow ?(delay = 0.) ?next mb =
    { delay; bytes = float_of_int mb *. 1e6; hops = [| 0 |]; cap = 20e9; next }
  in
  let sc =
    {
      caps = [| 150e9 |];
      flows =
        List.init 256 (fun i ->
            let chain =
              List.fold_left
                (fun next k ->
                  Some (flow ?next (1 + (((i * 37) + (k * 11)) mod 101))))
                None [ 3; 2; 1 ]
            in
            flow ~delay:(float_of_int i *. 1e-7) ?next:chain
              (1 + (i * 53 mod 97)));
      cap_events = [];
    }
  in
  Alcotest.(check int) "1024 flows" 1024 (snd (number sc.flows));
  Alcotest.(check bool) "engine = reference" true (agree sc)

(* ------------------------------------------------------------------ *)
(* Non-finite and absurd inputs                                        *)
(* ------------------------------------------------------------------ *)

(* Each of these inputs used to be accepted and then made [run] loop
   forever (or stall a flow for good); now they are rejected up front. *)
let rejected what f =
  match f () with
  | () -> Alcotest.failf "%s was accepted" what
  | exception Invalid_argument _ -> ()

let one_resource () = E.create ~capacities:[| 100. |]

let start_one ~bytes ~hops ~cap () =
  E.start_flow (one_resource ()) ~bytes ~hops ~cap ignore

let test_rejects_nan_bytes () =
  rejected "bytes = nan" (start_one ~bytes:Float.nan ~hops:[| 0 |] ~cap:10.)

let test_rejects_infinite_bytes () =
  rejected "bytes = infinity" (start_one ~bytes:infinity ~hops:[| 0 |] ~cap:10.)

let test_rejects_nan_cap () =
  rejected "cap = nan" (start_one ~bytes:10. ~hops:[| 0 |] ~cap:Float.nan)

let test_infinite_cap_needs_a_hop () =
  rejected "cap = infinity, no hops"
    (start_one ~bytes:10. ~hops:[||] ~cap:infinity);
  (* On a real hop an uncapped flow runs at the resource's rate. *)
  let eng = one_resource () in
  let done_at = ref 0. in
  E.start_flow eng ~bytes:1000. ~hops:[| 0 |] ~cap:infinity (fun () ->
      done_at := E.now eng);
  E.run eng;
  Alcotest.(check (float 1e-9)) "capacity bound" 10. !done_at

let test_rejects_nonfinite_capacity () =
  rejected "create [|infinity|]" (fun () ->
      ignore (E.create ~capacities:[| infinity |]));
  rejected "create [|nan|]" (fun () ->
      ignore (E.create ~capacities:[| Float.nan |]));
  rejected "set_capacity infinity" (fun () ->
      E.set_capacity (one_resource ()) 0 infinity);
  rejected "set_capacity nan" (fun () ->
      E.set_capacity (one_resource ()) 0 Float.nan)

let test_absurd_bytes_terminate () =
  (* 1e300 bytes: at the completion instant the clock is so coarse that
     the leftover remaining/rate rounds away; the flow must still finish
     instead of refiring at the same instant forever. *)
  let eng = E.create ~capacities:[| 1e10 |] in
  let fired = ref 0 in
  for i = 1 to 3 do
    E.after eng (float_of_int i) (fun () ->
        E.start_flow eng ~bytes:(1e300 /. float_of_int i) ~hops:[| 0 |] ~cap:7e9
          (fun () -> incr fired))
  done;
  E.run eng;
  Alcotest.(check int) "all completed" 3 !fired;
  Alcotest.(check bool) "finite end time" true (Float.is_finite (E.now eng))

(* ------------------------------------------------------------------ *)
(* Allocation gate                                                     *)
(* ------------------------------------------------------------------ *)

(* One resource, [fanout] flows always in the air: every completion starts
   a replacement until 10000 flows have run. Returns minor-heap words
   allocated per event. The resource is far faster than [fanout] flows at
   their cap, so no start or finish changes a rate: each flow costs one
   event, and its start and finish each visit all [fanout] flows. Any
   allocation per visited flow therefore grows this with [fanout]. (Were
   rates to change, lazy rescheduling would add events in proportion to
   the fan-out too, hiding per-visit cost in the per-event figure.) *)
let words_per_event fanout =
  let eng = E.create ~capacities:[| 1e15 |] in
  let hops = [| 0 |] in
  let started = ref 0 in
  let rec spawn () =
    if !started < 10000 then begin
      incr started;
      let bytes = float_of_int (1 + (!started * 37 mod 101)) *. 1e6 in
      E.start_flow eng ~bytes ~hops ~cap:20e9 spawn
    end
  in
  let w0 = Gc.minor_words () in
  for _ = 1 to fanout do
    spawn ()
  done;
  E.run eng;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. float_of_int (E.events_processed eng)

let test_allocation_flat_in_fanout () =
  let w4 = words_per_event 4 and w256 = words_per_event 256 in
  Printf.printf "minor words per event: fan-out 4 %.1f, fan-out 256 %.1f\n" w4
    w256;
  if w256 > 2. *. w4 then
    Alcotest.failf
      "allocation grows with fan-out: %.1f words/event at 256 vs %.1f at 4"
      w256 w4

let () =
  Alcotest.run "sim-engine"
    [
      ( "pqueue",
        [ Testutil.tc "order" test_pqueue_order; prop_pqueue_sorts;
          prop_pqueue_model ] );
      ( "flows",
        [
          Testutil.tc "single flow" test_single_flow_timing;
          Testutil.tc "per-flow cap" test_cap_bound;
          Testutil.tc "fair sharing" test_fair_sharing;
          Testutil.tc "staggered" test_staggered_flows;
          Testutil.tc "multi-hop" test_multi_hop_bottleneck;
          Testutil.tc "zero bytes" test_zero_byte_flow;
          prop_churn_conserves_work;
        ] );
      ("callbacks", [ Testutil.tc "ordering" test_callbacks_ordered ]);
      ( "reference",
        [
          prop_matches_reference;
          Testutil.tc "fan-out 256 churn" test_fanout_256_churn;
        ] );
      ( "inputs",
        [
          Testutil.tc "nan bytes rejected" test_rejects_nan_bytes;
          Testutil.tc "infinite bytes rejected" test_rejects_infinite_bytes;
          Testutil.tc "nan cap rejected" test_rejects_nan_cap;
          Testutil.tc "infinite cap needs a hop" test_infinite_cap_needs_a_hop;
          Testutil.tc "non-finite capacity rejected"
            test_rejects_nonfinite_capacity;
          Testutil.tc "absurd sizes terminate" test_absurd_bytes_terminate;
        ] );
      ( "allocation",
        [ Testutil.tc "flat in fan-out" test_allocation_flat_in_fanout ] );
    ]

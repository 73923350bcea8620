(* Hbgraph property tests: on random dependency DAGs the transitive-
   closure machinery must agree with a naive DFS reference for every
   reachability query, and the longest-path/topological-order answers
   must match a direct dynamic program. The graphs are single-GPU IRs
   whose only edges are program order and cross-thread-block [depends]
   (every depends target has a strictly smaller step index, which makes
   acyclicity a potential-function argument — so the generator can never
   accidentally build a cyclic "DAG"). *)

open Msccl_core
module F = Msccl_fuzz

let coll1 = Collective.make Collective.Allreduce ~num_ranks:1 ()

(* ------------------------------------------------------------------ *)
(* Random DAG IR generation                                            *)
(* ------------------------------------------------------------------ *)

let gen_ir rng =
  let ntbs = 1 + F.Rng.int rng 4 in
  let steps_of = Array.init ntbs (fun _ -> 1 + F.Rng.int rng 6) in
  let deps = Hashtbl.create 16 in
  let tbs =
    Array.init ntbs (fun tb_id ->
        let steps =
          Array.init steps_of.(tb_id) (fun s ->
              let depends = ref [] in
              Array.iteri
                (fun otb osteps ->
                  if otb <> tb_id && s > 0 && F.Rng.int rng 3 = 0 then begin
                    let target = F.Rng.int rng (min osteps s) in
                    depends := (otb, target) :: !depends;
                    Hashtbl.replace deps (otb, target) ()
                  end)
                steps_of;
              {
                Ir.s;
                op = Instr.Nop;
                src = None;
                dst = None;
                count = 1;
                depends = !depends;
                has_dep = false;
              })
        in
        { Ir.tb_id; send = -1; recv = -1; chan = tb_id; steps })
  in
  (* Mark every depends target so the IR passes validation rules. *)
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iteri
        (fun s (st : Ir.step) ->
          if Hashtbl.mem deps (tb.Ir.tb_id, s) then
            tb.Ir.steps.(s) <- { st with Ir.has_dep = true })
        tb.Ir.steps)
    tbs;
  {
    Ir.name = "hbgraph-random";
    collective = coll1;
    proto = Msccl_topology.Protocol.Simple;
    gpus =
      [|
        {
          Ir.gpu_id = 0;
          input_chunks = 1;
          output_chunks = 1;
          scratch_chunks = 0;
          tbs;
        };
      |];
  }

(* ------------------------------------------------------------------ *)
(* Naive reference: explicit adjacency + DFS + longest-path DP         *)
(* ------------------------------------------------------------------ *)

let adjacency h (ir : Ir.t) =
  let n = Hbgraph.num_nodes h in
  let succs = Array.make n [] in
  let node ~tb ~step = Hbgraph.node h ~gpu:0 ~tb ~step in
  Array.iter
    (fun (tb : Ir.tb) ->
      Array.iteri
        (fun s (st : Ir.step) ->
          let v = node ~tb:tb.Ir.tb_id ~step:s in
          if s + 1 < Array.length tb.Ir.steps then begin
            let w = node ~tb:tb.Ir.tb_id ~step:(s + 1) in
            succs.(v) <- w :: succs.(v)
          end;
          List.iter
            (fun (dtb, dstep) ->
              let u = node ~tb:dtb ~step:dstep in
              succs.(u) <- v :: succs.(u))
            st.Ir.depends)
        tb.Ir.steps)
    ir.Ir.gpus.(0).Ir.tbs;
  succs

let naive_reaches succs a b =
  let n = Array.length succs in
  let seen = Array.make n false in
  let rec go v =
    List.exists
      (fun w ->
        w = b
        ||
        if seen.(w) then false
        else begin
          seen.(w) <- true;
          go w
        end)
      succs.(v)
  in
  go a

let naive_longest_path succs =
  let n = Array.length succs in
  if n = 0 then 0
  else begin
    let memo = Array.make n 0 in
    let rec lp v =
      if memo.(v) > 0 then memo.(v)
      else begin
        let best =
          List.fold_left (fun acc w -> max acc (lp w)) 0 succs.(v)
        in
        memo.(v) <- 1 + best;
        memo.(v)
      end
    in
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (lp v)
    done;
    !best
  end

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let test_random_dags () =
  for case = 0 to 199 do
    let rng = F.Rng.fork (F.Rng.create 2024) case in
    let ir = gen_ir rng in
    let h = Hbgraph.build ir in
    let succs = adjacency h ir in
    let n = Hbgraph.num_nodes h in
    (* The generator builds DAGs by construction. *)
    if Hbgraph.cycle_size h <> 0 then
      Alcotest.failf "case %d: cycle reported on a DAG" case;
    (* Reachability agrees with DFS for every ordered pair. *)
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        let fast = Hbgraph.reaches h a b in
        let slow = naive_reaches succs a b in
        if fast <> slow then
          Alcotest.failf "case %d: reaches %d %d = %b, DFS says %b" case a b
            fast slow;
        let ord = Hbgraph.ordered h a b in
        if ord <> (fast || Hbgraph.reaches h b a) then
          Alcotest.failf "case %d: ordered %d %d inconsistent" case a b
      done
    done;
    (* Longest path agrees with the DP, in both plain and weighted form. *)
    let lp = Hbgraph.longest_path h in
    let naive = naive_longest_path succs in
    if lp <> naive then
      Alcotest.failf "case %d: longest_path %d, DP says %d" case lp naive;
    let wlp =
      Hbgraph.weighted_longest_path h
        ~weight:(Array.make (Hbgraph.num_nodes h) 1.0)
    in
    if abs_float (wlp -. float_of_int lp) > 1e-9 then
      Alcotest.failf "case %d: weighted longest path %f vs %d" case wlp lp;
    (* A topological order exists and respects every edge. *)
    match Hbgraph.topo_order h with
    | None -> Alcotest.failf "case %d: no topological order on a DAG" case
    | Some order ->
        let pos = Array.make n (-1) in
        Array.iteri (fun i v -> pos.(v) <- i) order;
        Array.iteri
          (fun v ws ->
            List.iter
              (fun w ->
                if pos.(v) >= pos.(w) then
                  Alcotest.failf "case %d: edge %d->%d against topo order"
                    case v w)
              ws)
          succs
  done

let test_cycle_detected () =
  (* Two mutually-depending steps: not a DAG; the graph must say so and
     reaches must still terminate (DFS fallback), with both nodes on the
     cycle reaching themselves. *)
  let step s depends =
    {
      Ir.s;
      op = Instr.Nop;
      src = None;
      dst = None;
      count = 1;
      depends;
      has_dep = true;
    }
  in
  let tb tb_id depends =
    {
      Ir.tb_id;
      send = -1;
      recv = -1;
      chan = tb_id;
      steps = [| step 0 depends |];
    }
  in
  let ir =
    {
      Ir.name = "hbgraph-cycle";
      collective = coll1;
      proto = Msccl_topology.Protocol.Simple;
      gpus =
        [|
          {
            Ir.gpu_id = 0;
            input_chunks = 1;
            output_chunks = 1;
            scratch_chunks = 0;
            tbs = [| tb 0 [ (1, 0) ]; tb 1 [ (0, 0) ] |];
          };
        |];
    }
  in
  let h = Hbgraph.build ir in
  Alcotest.(check bool) "topo order absent" true (Hbgraph.topo_order h = None);
  Alcotest.(check bool) "cycle size positive" true (Hbgraph.cycle_size h > 0);
  let a = Hbgraph.node h ~gpu:0 ~tb:0 ~step:0 in
  let b = Hbgraph.node h ~gpu:0 ~tb:1 ~step:0 in
  Alcotest.(check bool) "a reaches b" true (Hbgraph.reaches h a b);
  Alcotest.(check bool) "b reaches a" true (Hbgraph.reaches h b a);
  Alcotest.(check bool) "a on cycle reaches itself" true
    (Hbgraph.reaches h a a)

let () =
  Alcotest.run "hbgraph"
    [
      ( "hbgraph",
        [
          Testutil.tc "200 random DAGs vs naive DFS" test_random_dags;
          Testutil.tc "cycle detection and DFS fallback" test_cycle_detected;
        ] );
    ]

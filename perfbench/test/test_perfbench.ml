(* The benchmark's own tests: the shared statistics and the seeded
   workload generators. *)

open Perfbench

let floats n = Array.init n (fun i -> float (i + 1))

let tail_pick () =
  let check n label value =
    let t = Stats.tail (floats n) in
    Alcotest.(check string) (Printf.sprintf "label at %d" n) label t.Stats.label;
    Alcotest.(check (float 0.)) (Printf.sprintf "value at %d" n) value t.Stats.value;
    Alcotest.(check bool) (Printf.sprintf "10 beyond at %d" n) true (t.Stats.beyond >= 10)
  in
  (* p90 of 99 samples has only 9 beyond it *)
  check 99 "p50" 50.;
  check 100 "p90" 90.;
  check 999 "p90" 900.;
  check 1000 "p99" 990.;
  check 10_000 "p99.9" 9990.;
  let few = Stats.tail (floats 5) in
  Alcotest.(check string) "too few samples fall back to the median" "p50" few.Stats.label;
  Alcotest.(check bool) "and say so" true (few.Stats.beyond < 10)

let median () =
  Alcotest.(check (float 0.)) "odd" 3. (Stats.median [| 5.; 1.; 3.; 2.; 4. |]);
  Alcotest.(check (float 0.)) "even: lower middle" 2. (Stats.median [| 4.; 1.; 3.; 2. |]);
  Alcotest.(check (float 0.)) "single" 7. (Stats.median [| 7. |])

let failures_count_as_missing () =
  let with_failures k =
    Array.init 100 (fun i -> if i < k then Stats.failed_latency else float (i + 1))
  in
  Alcotest.(check (float 0.)) "10 failures sit beyond p90" 100. (Stats.tail (with_failures 10)).Stats.value;
  Alcotest.(check bool) "11 failures reach p90" true
    ((Stats.tail (with_failures 11)).Stats.value = infinity);
  Alcotest.(check bool) "51 failures reach the median" true
    (Stats.median (with_failures 51) = infinity);
  (* a 16-item batch counts 16 ops; failures never exceed attempts *)
  let t = Stats.tally [ (1, 0); (16, 2); (1, 1); (2, 5) ] in
  Alcotest.(check int) "attempted" 20 t.Stats.attempted;
  Alcotest.(check int) "failed" 5 t.Stats.failed;
  Alcotest.(check (float 0.)) "fail ratio" 0.25 (Stats.fail_ratio t)

let self_time () =
  let span id parent start stop = { Span.id; parent; op = 1; name = string_of_int id; start; stop } in
  let spans =
    [ span 1 0 0. 10.; span 2 1 1. 3.; span 3 1 2. 5.; span 4 1 8. 12.; span 5 2 1.5 2. ]
  in
  let selfs = List.map (fun ((s : Span.span), d) -> (s.Span.id, d)) (Stats.self_times spans) in
  (* children cover [1,5] (overlaps merged) and [8,10] (clipped) *)
  Alcotest.(check (float 1e-9)) "root" 4. (List.assoc 1 selfs);
  Alcotest.(check (float 1e-9)) "child with a child" 1.5 (List.assoc 2 selfs);
  Alcotest.(check (float 1e-9)) "leaf" 3. (List.assoc 3 selfs);
  let t = Span.create () in
  let r = Span.within t ~op:7 ~parent:0 "outer" (fun id -> Span.within t ~op:7 ~parent:id "inner" (fun _ -> 42)) in
  Alcotest.(check int) "within returns" 42 r;
  match Span.spans t with
  | [ inner; outer ] ->
      Alcotest.(check int) "inner's parent is outer" outer.Span.id inner.Span.parent;
      Alcotest.(check bool) "nested" true (outer.Span.start <= inner.Span.start && inner.Span.stop <= outer.Span.stop)
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l)

let stratified () =
  let draw = Stats.stratified (Random.State.make [| 5 |]) [| 3; 0; 1 |] in
  for block = 1 to 3 do
    let b = List.init 4 (fun _ -> draw ()) in
    let count k = List.length (List.filter (( = ) k) b) in
    Alcotest.(check (list int))
      (Printf.sprintf "block %d holds the exact mix" block)
      [ 3; 0; 1 ] [ count 0; count 1; count 2 ]
  done

let generators () =
  let catalog = Catalog.load ~path:"../elect_catalog.txt" () in
  let hot seed = Serve.repeats Serve.Hot ~seed ~catalog in
  let a = hot 1 and b = hot 1 and c = hot 2 in
  Alcotest.(check string) "same seed, same stream" a.Serve.digest b.Serve.digest;
  Alcotest.(check bool) "another seed, another stream" true (a.Serve.digest <> c.Serve.digest);
  let shape r = (Array.map (fun (t : Serve.topo) -> t.Serve.task) r.Serve.topos, Array.length r.Serve.draws) in
  Alcotest.(check bool) "same shape" true (shape a = shape c);
  let _, units1, d1 = Serve.cold ~seed:1 ~catalog and _, units1', d1' = Serve.cold ~seed:1 ~catalog in
  let _, units2, d2 = Serve.cold ~seed:2 ~catalog in
  Alcotest.(check string) "cold: same seed, same stream" d1 d1';
  Alcotest.(check bool) "cold: another seed, another stream" true (d1 <> d2);
  Alcotest.(check int) "cold: same length" (Array.length units1) (Array.length units2);
  ignore units1';
  let jobs1, g1 = Grid.jobs ~seed:1 and _, g1' = Grid.jobs ~seed:1 and jobs2, g2 = Grid.jobs ~seed:2 in
  Alcotest.(check string) "grid: same seed, same job list" g1 g1';
  Alcotest.(check bool) "grid: another seed, another order" true (g1 <> g2);
  Alcotest.(check int) "grid: same jobs" (List.length jobs1) (List.length jobs2)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail percentile pick" `Quick tail_pick;
          Alcotest.test_case "median" `Quick median;
          Alcotest.test_case "failed ops count as missing" `Quick failures_count_as_missing;
          Alcotest.test_case "self time" `Quick self_time;
          Alcotest.test_case "stratified draws" `Quick stratified ] );
      ("generator", [ Alcotest.test_case "seeded and deterministic" `Quick generators ]) ]

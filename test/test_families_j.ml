(* Tests for the class J_{µ,k} (Section 4): layer graphs, component H,
   gadgets, template chaining, the Lemma 4.8 CPPE algorithm, and the
   Theorem 4.11/4.12 fooling mechanism. *)

open Shades_graph
open Shades_views
open Shades_election
open Shades_families

(* --- Part 1: layer graphs --- *)

let build_layer mu m =
  let proto = Proto.create () in
  let l = Layers.add proto ~mu ~m in
  (Proto.build proto, l)

let test_fact_4_1_sizes () =
  (* Formula vs. actually built node count. *)
  List.iter
    (fun mu ->
      List.iter
        (fun m ->
          let g, _ = build_layer mu m in
          Alcotest.(check int)
            (Printf.sprintf "|L_%d| mu=%d" m mu)
            (Layers.size ~mu ~m)
            (Port_graph.order g))
        [ 0; 1; 2; 3; 4; 5; 6 ])
    [ 2; 3; 4 ];
  (* The paper's running example µ=3 (Figure 4). *)
  Alcotest.(check (list int)) "mu=3 sizes" [ 1; 3; 5; 8; 17; 26 ]
    (List.map (fun m -> Layers.size ~mu:3 ~m) [ 0; 1; 2; 3; 4; 5 ])

let test_layer_diameter () =
  (* "the graph L_j in this set has diameter j" *)
  List.iter
    (fun mu ->
      List.iter
        (fun m ->
          let g, _ = build_layer mu m in
          if m > 0 then
            Alcotest.(check int)
              (Printf.sprintf "diam L_%d mu=%d" m mu)
              m (Paths.diameter g))
        [ 1; 2; 3; 4; 5 ])
    [ 2; 3 ]

let test_even_layer_middles_glued () =
  let _, l = build_layer 3 4 in
  List.iter
    (fun sigma ->
      Alcotest.(check int) "merged addresses"
        (l.Layers.node 0 sigma)
        (l.Layers.node 1 sigma))
    (Layers.sigmas 3 2)

let test_w_order () =
  let _, l = build_layer 2 4 in
  let order = Layers.w_order l in
  Alcotest.(check int) "z entries" (Layers.size ~mu:2 ~m:4)
    (Array.length order);
  (* Lexicographic on b :: σ, starting from the b = 0 root. *)
  Alcotest.(check (pair int (list int))) "first" (0, []) order.(0);
  Alcotest.(check (pair int (list int))) "second" (0, [ 0 ]) order.(1)

(* --- Part 2: component H --- *)

let test_component_size () =
  List.iter
    (fun (mu, k) ->
      let g, c = Component.standalone ~mu ~k in
      Alcotest.(check int)
        (Printf.sprintf "|H| mu=%d k=%d" mu k)
        (Component.size ~mu ~k)
        (Port_graph.order g);
      Alcotest.(check bool) "connected" true (Paths.is_connected g);
      Alcotest.(check int) "z pairs" (Component.z ~mu ~k)
        (Array.length c.Component.w))
    [ (2, 4); (3, 4); (3, 5); (4, 4) ]

let test_lemma_4_3 () =
  (* Every node has some pair (w_{l,1}, w_{l,2}) entirely at distance >= k. *)
  List.iter
    (fun (mu, k) ->
      let g, c = Component.standalone ~mu ~k in
      let ok = ref true in
      List.iter
        (fun v ->
          let d = Paths.bfs_distances g v in
          let misses =
            Array.exists
              (fun (w1, w2) -> d.(w1) >= k && d.(w2) >= k)
              c.Component.w
          in
          if not misses then ok := false)
        (Port_graph.vertices g);
      Alcotest.(check bool)
        (Printf.sprintf "Lemma 4.3 mu=%d k=%d" mu k)
        true !ok)
    [ (2, 4); (3, 4); (3, 5) ]

let test_finding_distance_k_plus_1 () =
  (* Reproduction finding: the informal "everything within distance k"
     claim fails — opposite-side layer-k nodes of the two copies sit at
     distance k+1 — but every node sees at least one member of every
     pair within k, which is what the W-decoding needs. *)
  let g, c = Component.standalone ~mu:3 ~k:4 in
  let k = 4 in
  let far_pair_exists = ref false in
  let either_ok = ref true in
  List.iter
    (fun v ->
      let d = Paths.bfs_distances g v in
      Array.iter
        (fun (w1, w2) ->
          if d.(w1) > k || d.(w2) > k then far_pair_exists := true;
          if min d.(w1) d.(w2) > k then either_ok := false)
        c.Component.w)
    (Port_graph.vertices g);
  Alcotest.(check bool) "some node >k away from a w-node" true
    !far_pair_exists;
  Alcotest.(check bool) "but one of each pair always within k" true !either_ok

let test_finding_mu2_degrees () =
  (* Reproduction finding: for µ = 2 the doubly-connected L_{k−1}
     middles out-degree ρ (4µ = 8): degree 9 when k is even. *)
  let g, c = Component.standalone ~mu:2 ~k:4 in
  let max_nonroot =
    List.fold_left
      (fun acc v ->
        if v = c.Component.root then acc else max acc (Port_graph.degree g v))
      0 (Port_graph.vertices g)
  in
  Alcotest.(check int) "L_3 middles reach degree 9" 9 max_nonroot;
  Alcotest.(check bool) "9 > 4*mu = 8" true (max_nonroot > 8);
  (* ... while for µ = 3 the gadget centre ρ = 4µ = 12 dominates. *)
  let g3, c3 = Component.standalone ~mu:3 ~k:4 in
  let max3 =
    List.fold_left
      (fun acc v ->
        if v = c3.Component.root then acc
        else max acc (Port_graph.degree g3 v))
      0 (Port_graph.vertices g3)
  in
  Alcotest.(check bool) "mu=3 non-root degrees < 12" true (max3 < 12)

(* --- Parts 3-5: gadgets, template, class --- *)

let params = { Jclass.mu = 3; k = 4; z_eff = 3 }

let build_j y_setter =
  let y = Jclass.y_zero params in
  y_setter y;
  Jclass.build params ~y

let test_gadget_structure () =
  let t = build_j (fun _ -> ()) in
  let g = t.Jclass.graph in
  Alcotest.(check int) "num gadgets" 8 (Array.length t.Jclass.gadgets);
  Alcotest.(check bool) "connected" true (Paths.is_connected g);
  Array.iter
    (fun gd ->
      Alcotest.(check int) "rho degree 4mu" 12
        (Port_graph.degree g gd.Jclass.rho))
    t.Jclass.gadgets;
  (* vertex ranges partition the graph *)
  List.iter
    (fun v ->
      let gi = Jclass.gadget_of_vertex t v in
      let gd = t.Jclass.gadgets.(gi) in
      Alcotest.(check bool) "in range" true
        (v >= gd.Jclass.first_vertex && v <= gd.Jclass.last_vertex))
    (Port_graph.vertices g)

let test_w_encoding () =
  (* L and T encode the gadget index, R and B its successor; the chain
     ends read 0 on the missing side. *)
  let t = build_j (fun y -> y.(1) <- true) in
  let last = Array.length t.Jclass.gadgets - 1 in
  Array.iteri
    (fun gi _ ->
      let w = Jclass.w_values t ~gadget:gi in
      let expect_l = gi and expect_r = if gi = last then 0 else gi + 1 in
      Alcotest.(check (list int))
        (Printf.sprintf "W of gadget %d" gi)
        [ expect_l; expect_l; expect_r; expect_r ]
        (Array.to_list w))
    t.Jclass.gadgets

let test_prop_4_4_rho_views () =
  (* All ρ views agree at depth k−1, swaps or not. *)
  let t = build_j (fun y -> y.(0) <- true; y.(2) <- true) in
  let r = Refinement.compute t.Jclass.graph ~depth:3 in
  let c0 = Refinement.class_of r ~depth:3 t.Jclass.gadgets.(0).Jclass.rho in
  Array.iter
    (fun gd ->
      Alcotest.(check int) "rho class at k-1" c0
        (Refinement.class_of r ~depth:3 gd.Jclass.rho))
    t.Jclass.gadgets

let test_lemma_4_6_twins () =
  (* Adaptive twin check: for sampled nodes v in gadget i, find a bit l
     such that the pair (w_{l,1}, w_{l,2}) of v's component is out of
     B^{k−1}(v) and the flipped index i' is in range; the corresponding
     node of gadget i' must share v's view at depth k−1. *)
  let t = build_j (fun _ -> ()) in
  let g = t.Jclass.graph in
  let k = 4 in
  let checked = ref 0 in
  (* Scan every node of a middle gadget: whenever some usable bit l
     (l < z_eff, so the flipped index is in the scaled chain) has its
     pair out of B^{k−1}(v), the twin in the flipped gadget must share
     v's view. *)
  List.iter
    (fun gi ->
      let gd = t.Jclass.gadgets.(gi) in
      for v = gd.Jclass.first_vertex to gd.Jclass.last_vertex do
        if v <> gd.Jclass.rho then begin
          let comp =
            (* v's component: the one whose vertex range contains it *)
            let rec find c =
              if c = 3 then 3
              else begin
                let next = gd.Jclass.components.(c + 1) in
                (* component roots interleave; use layer-1 first vertex *)
                if v < next.Component.layers.(1).Layers.roots.(0) then c
                else find (c + 1)
              end
            in
            find 0
          in
          let c = gd.Jclass.components.(comp) in
          let d = Paths.bfs_distances g v in
          (* The L/T components encode x_i but R/B encode x_{i+1}, so
             the twin flips the corresponding index. *)
          let flip q =
            if comp <= 1 then gi lxor (1 lsl q)
            else ((gi + 1) lxor (1 lsl q)) - 1
          in
          let in_range i' = i' >= 0 && i' < Array.length t.Jclass.gadgets in
          let rec find_l q =
            if q >= params.Jclass.z_eff then None
            else begin
              let w1, w2 = c.Component.w.(q) in
              if d.(w1) >= k && d.(w2) >= k && in_range (flip q) then
                Some (flip q)
              else find_l (q + 1)
            end
          in
          match find_l 0 with
          | None -> ()
          | Some i' ->
              let offset = v - gd.Jclass.first_vertex in
              let v' = t.Jclass.gadgets.(i').Jclass.first_vertex + offset in
              incr checked;
              if not (Refinement.equal_views_cross g v g v' ~depth:(k - 1))
              then
                Alcotest.failf "twin mismatch: %d (gadget %d -> %d)" v gi i'
        end
      done)
    [ 2 ];
  Alcotest.(check bool)
    (Printf.sprintf "twins checked (%d)" !checked)
    true (!checked > 50)

let test_scaled_psi_s () =
  (* Scaling artifact (documented): the 2^{z_eff}-gadget chain leaves
     some layer-k node unique one round early; the full 2^z template
     would give exactly k (Lemma 4.7). *)
  let t = build_j (fun _ -> ()) in
  match Refinement.min_unique_depth t.Jclass.graph with
  | Some d ->
      Alcotest.(check bool) "k-1 <= psi_S <= k" true (d >= 3 && d <= 4)
  | None -> Alcotest.fail "scaled J infeasible?"

let test_lemma_4_8_cppe () =
  let t = build_j (fun y -> y.(1) <- true) in
  let g = t.Jclass.graph in
  (* oracle-side assignment *)
  let answers = Jclass.cppe_assignment t in
  Alcotest.(check (result int string)) "assignment verifies"
    (Ok t.Jclass.gadgets.(0).Jclass.rho)
    (Verify.complete_port_path_election g answers);
  (* full run through the LOCAL simulator; the oracle raises if the
     assignment is not constant on depth-k view classes *)
  let scheme = Jclass.cppe_scheme t in
  let r = Scheme.run scheme g in
  Alcotest.(check int) "rounds = k" 4 r.Scheme.rounds;
  Alcotest.(check (result int string)) "simulated run verifies"
    (Ok t.Jclass.gadgets.(0).Jclass.rho)
    (Verify.complete_port_path_election g r.Scheme.outputs)

let test_lemma_4_10_border_views () =
  let a = build_j (fun _ -> ()) in
  let b = build_j (fun y -> y.(1) <- true) in
  let border t =
    fst t.Jclass.gadgets.(0).Jclass.components.(0).Component.w.(0)
  in
  Alcotest.(check bool) "w_{1,1} of HL of gadget 0: same B^k" true
    (Refinement.equal_views_cross a.Jclass.graph (border a) b.Jclass.graph
       (border b) ~depth:4)

let test_thm_4_11_fooling () =
  let a = build_j (fun _ -> ()) in
  let b = build_j (fun y -> y.(1) <- true) in
  let scheme = Jclass.cppe_scheme a in
  let advice = scheme.Scheme.oracle a.Jclass.graph in
  let honest = Scheme.run scheme a.Jclass.graph ~advice in
  Alcotest.(check bool) "honest ok" true
    (Result.is_ok
       (Verify.complete_port_path_election a.Jclass.graph
          honest.Scheme.outputs));
  let fooled = Scheme.run scheme b.Jclass.graph ~advice in
  (match
     Verify.complete_port_path_election b.Jclass.graph fooled.Scheme.outputs
   with
  | Ok _ -> Alcotest.fail "fooled run must not satisfy CPPE"
  | Error _ -> ());
  (* Control: an equal-Y rebuild accepts the same advice. *)
  let a' = build_j (fun _ -> ()) in
  let control = Scheme.run scheme a'.Jclass.graph ~advice in
  Alcotest.(check bool) "control ok" true
    (Result.is_ok
       (Verify.complete_port_path_election a'.Jclass.graph
          control.Scheme.outputs))

let test_fact_4_2_bounds () =
  (* µ^{k/2} <= z <= 4µ^{k/2} and |J| = 2^{2^{z-1}}. *)
  List.iter
    (fun (mu, k) ->
      let z = Jclass.z ~mu ~k in
      let base = float_of_int mu ** float_of_int (k / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "z bounds mu=%d k=%d" mu k)
        true
        (float_of_int z >= base && float_of_int z <= 4.0 *. base);
      Alcotest.(check (float 0.001))
        "log2 |J|"
        (2.0 ** float_of_int (z - 1))
        (Jclass.class_size_log2 ~mu ~k))
    [ (3, 4); (4, 4); (3, 5) ]

let test_odd_k_instance () =
  (* k = 5 exercises the other parity throughout: odd L_k copies joined
     by leaf edges, and the doubled L_4 -> L_5 connection through even
     middles (Case 1 with a port shift). *)
  let p5 = { Jclass.mu = 3; k = 5; z_eff = 3 } in
  let y = Jclass.y_zero p5 in
  y.(2) <- true;
  let t = Jclass.build p5 ~y in
  let g = t.Jclass.graph in
  Alcotest.(check bool) "connected" true (Paths.is_connected g);
  Alcotest.(check bool) "rho degree 4mu" true
    (Array.for_all
       (fun gd -> Port_graph.degree g gd.Jclass.rho = 12)
       t.Jclass.gadgets);
  (* W encoding unchanged by the parity *)
  let last = Array.length t.Jclass.gadgets - 1 in
  Array.iteri
    (fun gi _ ->
      let w = Jclass.w_values t ~gadget:gi in
      let expect_r = if gi = last then 0 else gi + 1 in
      Alcotest.(check (list int))
        (Printf.sprintf "W gadget %d (k=5)" gi)
        [ gi; gi; expect_r; expect_r ]
        (Array.to_list w))
    t.Jclass.gadgets;
  (* Prop 4.4 at k-1 = 4 *)
  let r = Refinement.compute g ~depth:4 in
  let c0 = Refinement.class_of r ~depth:4 t.Jclass.gadgets.(0).Jclass.rho in
  Alcotest.(check bool) "rho views equal at k-1" true
    (Array.for_all
       (fun gd -> Refinement.class_of r ~depth:4 gd.Jclass.rho = c0)
       t.Jclass.gadgets);
  (* the Lemma 4.8 assignment still verifies *)
  Alcotest.(check (result int string))
    "CPPE assignment verifies (k=5)"
    (Ok t.Jclass.gadgets.(0).Jclass.rho)
    (Verify.complete_port_path_election g (Jclass.cppe_assignment t))

(* Property: the CPPE assignment verifies for arbitrary Y. *)
let prop_random_y =
  QCheck.Test.make ~name:"random Y: CPPE assignment verifies" ~count:10
    QCheck.(make ~print:string_of_int Gen.(int_bound 100_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let y = Jclass.y_zero params in
      Array.iteri (fun i _ -> y.(i) <- Random.State.bool st) y;
      let t = Jclass.build params ~y in
      let answers = Jclass.cppe_assignment t in
      Verify.complete_port_path_election t.Jclass.graph answers
      = Ok t.Jclass.gadgets.(0).Jclass.rho)

let () =
  Alcotest.run "shades_families_j"
    [
      ( "layers",
        [
          Alcotest.test_case "Fact 4.1 sizes" `Quick test_fact_4_1_sizes;
          Alcotest.test_case "diameter = m" `Quick test_layer_diameter;
          Alcotest.test_case "even middles glued" `Quick
            test_even_layer_middles_glued;
          Alcotest.test_case "w order" `Quick test_w_order;
        ] );
      ( "component",
        [
          Alcotest.test_case "size and connectivity" `Quick
            test_component_size;
          Alcotest.test_case "Lemma 4.3" `Quick test_lemma_4_3;
          Alcotest.test_case "finding: distance k+1 pairs" `Quick
            test_finding_distance_k_plus_1;
          Alcotest.test_case "finding: mu=2 degree clash" `Quick
            test_finding_mu2_degrees;
        ] );
      ( "template",
        [
          Alcotest.test_case "gadget structure" `Quick test_gadget_structure;
          Alcotest.test_case "W encoding" `Quick test_w_encoding;
          Alcotest.test_case "Prop 4.4 rho views" `Quick
            test_prop_4_4_rho_views;
          Alcotest.test_case "Lemma 4.6 twins" `Quick test_lemma_4_6_twins;
          Alcotest.test_case "scaled psi_S" `Quick test_scaled_psi_s;
          Alcotest.test_case "Fact 4.2 bounds" `Quick test_fact_4_2_bounds;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "Lemma 4.8 CPPE" `Slow test_lemma_4_8_cppe;
          Alcotest.test_case "Lemma 4.10 border views" `Quick
            test_lemma_4_10_border_views;
          Alcotest.test_case "Thm 4.11 fooling" `Slow test_thm_4_11_fooling;
        ] );
      ( "odd-k",
        [ Alcotest.test_case "J(3,5) instance" `Quick test_odd_k_instance ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_random_y ]);
    ]

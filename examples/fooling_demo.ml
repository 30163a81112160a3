(* Fooling demo: the lower-bound mechanism of Theorems 2.9, 3.11 and
   4.11, executed.

   Each lower bound is a pigeonhole argument: with too few advice bits,
   two different class members receive the same string; nodes that
   cannot distinguish the two networks within k rounds then produce the
   same output in both, and in one of them that output is wrong.  Here
   we force exactly that: run each scheme on graph B with the advice the
   oracle produced for graph A, and watch the verifier reject.

   Run with: dune exec examples/fooling_demo.exe *)

open Shades_election
open Shades_families

let show name result =
  Printf.printf "  %-12s %s\n" name
    (match result with
    | Ok leader -> Printf.sprintf "accepted (leader = node %d)" leader
    | Error e -> "REJECTED: " ^ e)

let () =
  (* --- Selection on G_{4,2} (Theorem 2.9) --- *)
  Printf.printf "Selection on G_{4,2}: advice of G_2 forced onto G_3\n";
  let p = { Gclass.delta = 4; k = 2 } in
  let a = Gclass.build p ~i:2 and b = Gclass.build p ~i:3 in
  let advice = Select_by_view.scheme.Scheme.oracle a.Gclass.graph in
  let honest =
    Scheme.run Select_by_view.scheme a.Gclass.graph ~advice
  in
  show "honest:" (Verify.selection a.Gclass.graph honest.Scheme.outputs);
  let fooled =
    Scheme.run Select_by_view.scheme b.Gclass.graph ~advice
  in
  show "fooled:" (Verify.selection b.Gclass.graph fooled.Scheme.outputs);
  Printf.printf
    "  (G_3 contains two copies of the tree that is unique in G_2, so\n\
    \   both of their roots matched the advice view)\n\n";

  (* --- Port Election on U_{4,1} (Theorem 3.11) --- *)
  Printf.printf "Port Election on U_{4,1}: sigma differs at one tree\n";
  let p = { Uclass.delta = 4; k = 1 } in
  let sa = Uclass.uniform_sigma p 1 in
  let sb = Uclass.uniform_sigma p 1 in
  sb.(4) <- 3;
  let a = Uclass.build p ~sigma:sa and b = Uclass.build p ~sigma:sb in
  let advice = Uclass.pe_scheme.Scheme.oracle a.Uclass.graph in
  let honest = Scheme.run Uclass.pe_scheme a.Uclass.graph ~advice in
  show "honest:" (Verify.port_election a.Uclass.graph honest.Scheme.outputs);
  let fooled = Scheme.run Uclass.pe_scheme b.Uclass.graph ~advice in
  show "fooled:" (Verify.port_election b.Uclass.graph fooled.Scheme.outputs);
  Printf.printf
    "  (the heavy node's k-round view is identical in both graphs, so it\n\
    \   output the old first port, which now leads into a decoy path)\n\n";

  (* --- CPPE on J_{3,4} (Theorem 4.11/4.12) --- *)
  Printf.printf "CPPE on scaled J_{3,4}: Y differs at one gadget\n";
  let p = { Jclass.mu = 3; k = 4; z_eff = 3 } in
  let ya = Jclass.y_zero p in
  let yb = Jclass.y_zero p in
  yb.(1) <- true;
  let a = Jclass.build p ~y:ya and b = Jclass.build p ~y:yb in
  let scheme = Jclass.cppe_scheme a in
  let advice = scheme.Scheme.oracle a.Jclass.graph in
  let honest = Scheme.run scheme a.Jclass.graph ~advice in
  show "honest:"
    (Verify.complete_port_path_election a.Jclass.graph honest.Scheme.outputs);
  let fooled = Scheme.run scheme b.Jclass.graph ~advice in
  show "fooled:"
    (Verify.complete_port_path_election b.Jclass.graph fooled.Scheme.outputs);
  Printf.printf
    "  (right-half nodes cannot see the swapped ports at the flipped\n\
    \   gadget's centre; their advice-dictated port paths derail there)\n"

(** Exact minimum advice for fixed-time Selection over a finite class.

    A [k]-round Selection algorithm is a function [f(advice, B^k)] into
    [{leader, non-leader}]; on a graph [G] it is correct iff the set of
    views it maps to "leader" intersects the view multiset of [G] in
    exactly one occurrence.  Two graphs can share an advice string iff a
    single such view set works for both, so the minimum number of
    distinct advice strings over a class is the minimum number of parts
    in a partition into "sharable" groups — computable exactly for the
    small instances of the paper's classes, and the tightness check for
    Theorem 2.9's pigeonhole: on [G_{∆,k}] every pair of class members
    conflicts, so all [|G_{∆,k}|] strings are needed. *)

(** [sharable ~depth graphs]: can one advice string serve a [depth]-round
    Selection algorithm on all of [graphs]?  Decided by choosing, per
    graph, a view that occurs exactly once in it, such that the chosen
    set intersects every graph's view multiset exactly once. *)
val sharable : depth:int -> Shades_graph.Port_graph.t list -> bool

(** [min_advice_strings ~depth graphs] is the minimum number of distinct
    advice strings any [depth]-round Selection scheme needs to cover all
    of [graphs] (exact set-partition DP over subsets; intended for at
    most ~15 graphs). *)
val min_advice_strings : depth:int -> Shades_graph.Port_graph.t list -> int

(** [bits_for count] is the minimum worst-case advice length (in bits)
    able to address [count] distinct strings, counting every string of
    length at most L: [2^{L+1} - 1] of them. *)
val bits_for : int -> int

(** [pe_sharable ~depth g1 g2]: can one advice string serve a
    [depth]-round Port Election algorithm on both graphs?  A PE
    algorithm maps each view to "leader" or a port; sharing requires a
    leader choice hitting each graph's view census exactly once and, for
    every other view, one port that starts a simple path to the chosen
    leader at {e every} occurrence of that view in {e both} graphs.
    Decided exactly (enumerating leader pairs, then intersecting valid
    port sets per view).  This is the engine of Theorem 3.11: any two
    [U_{∆,k}] members with different σ turn out unsharable, so the class
    needs as many strings as it has members. *)
val pe_sharable :
  depth:int -> Shades_graph.Port_graph.t -> Shades_graph.Port_graph.t -> bool

(** The time-vs-advice tradeoff: all four shades with O(log n) advice.

    Sections 2-4 show that {e minimum-time} strong election needs advice
    exponential in ∆.  The paper's closing open question asks what
    happens when more time is allowed; these schemes give the classical
    upper-bound answer: with [2(n-1)] rounds, [gamma n] bits of advice
    (just the network size) suffice for {e every} shade.  Each node
    gathers [B^{2(n-1)}], rebuilds the whole map from its own view
    ({!Shades_views.Reconstruct}), canonicalizes it (feasible graphs are
    rigid, so every node obtains the same map and locates itself
    uniquely), and routes to the canonical vertex 0.

    Contrast: on [U_{∆,k}] at minimum time k, PE needs
    [Ω((∆−1)^{(∆−2)(∆−1)^{k−1}} log ∆)] advice bits; at time 2(n−1) it
    needs ⌈log n⌉ + O(1).

    Schemes run through {!Shades_localsim.Compact_info} (hash-consed
    views), so deep exchanges stay polynomial. *)

type 'o t = {
  name : string;
  oracle : Shades_graph.Port_graph.t -> Shades_bits.Bitstring.t;
  rounds_of : advice:Shades_bits.Bitstring.t -> degree:int -> int;
  decide :
    advice:Shades_bits.Bitstring.t -> Shades_views.Cview.ctx ->
    Shades_views.Cview.t -> 'o;
}

type 'o run = { outputs : 'o array; rounds : int; advice_bits : int }

val run : 'o t -> Shades_graph.Port_graph.t -> 'o run

val run_with_advice :
  'o t -> Shades_graph.Port_graph.t -> advice:Shades_bits.Bitstring.t -> 'o run

(** The four schemes.  The oracle raises [Invalid_argument] on
    infeasible graphs (no advice can help those). *)
val selection : unit Task.answer t

val port_election : int Task.answer t
val port_path_election : int list Task.answer t
val complete_port_path_election : (int * int) list Task.answer t

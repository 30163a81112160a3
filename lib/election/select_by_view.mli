(** The universal minimum-time Selection scheme of Theorem 2.2.

    Oracle: among the nodes whose augmented truncated view at depth
    ψ_S(G) is unique, pick the one with the lexicographically smallest
    view and encode that view as the advice.

    Algorithm: decode the view, read off its height [h] (= ψ_S(G)),
    gather [B^h] in [h] rounds, output leader iff it equals the advice.

    Advice size is [O((∆-1)^{ψ_S} · log ∆)] bits — polynomial in ∆: the
    cheap side of every separation in the paper. *)

(** The scheme. The oracle
    @raise Invalid_argument on an infeasible graph. *)
val scheme : unit Task.answer Scheme.t

(** [advice_bits g] is the advice length without running the algorithm. *)
val advice_bits : Shades_graph.Port_graph.t -> int

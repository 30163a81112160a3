(** The full-information protocol on top of {!Engine}.

    In the LOCAL model with unbounded messages, the optimal strategy is
    for every node to forward everything it knows each round; after [r]
    rounds a node's knowledge is exactly its augmented truncated view
    [B^r] (paper, Section 1).  This module implements that protocol
    honestly — nodes exchange view trees over the simulated network —
    so every minimum-time algorithm can be phrased as
    "gather [B^r], then decide". *)

type 'v state
(** A node's protocol state: rounds still to run and its view so far,
    in view representation ['v]. *)

type 'v msg
(** One view-exchange message: the sender's port and its current view. *)

val exchange :
  leaf:(int -> 'v) ->
  node:(int -> (int * 'v) array -> 'v) ->
  degree_of:('v -> int) ->
  rounds_of:(advice:Shades_bits.Bitstring.t -> degree:int -> int) ->
  decide:('v -> 'o) ->
  ('v state, 'v msg, 'o) Engine.algorithm
(** The view-exchange protocol as an engine algorithm, over any view
    representation: [leaf d] is [B^0] of a degree-[d] node, [node d
    children] is the view whose port [p] leads to [children.(p)] (far
    port, neighbour's view), and [degree_of] reads a view's root degree.
    Each node computes its round count from the advice and its degree
    before communicating; all paper algorithms derive a common count
    from the advice, so the values coincide across nodes — this is
    asserted, which is why one value serves exactly one run (build a
    fresh one per run).  [decide] maps the node's [B^r] to its output,
    the common advice already applied.  [rounds_of] is only called from
    the engines' [init], which every engine runs sequentially in the
    calling domain. *)

val algorithm :
  rounds_of:(advice:Shades_bits.Bitstring.t -> degree:int -> int) ->
  decide:(Shades_views.View_tree.t -> 'o) ->
  (Shades_views.View_tree.t state, Shades_views.View_tree.t msg, 'o)
  Engine.algorithm
(** {!exchange} on explicit view trees — the protocol every paper
    scheme runs, runnable by any engine entry point ({!Exec.run},
    {!Engine.run_with_faults}, {!Async_engine.run_plan}). *)

val msg_size : Shades_views.View_tree.t msg -> int
(** The traced size of a message: the node count of the carried view —
    a pure function of the message, as replay requires. *)

val run_adaptive :
  ?exec:Exec.t ->
  ?max_rounds:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  rounds_of:(advice:Shades_bits.Bitstring.t -> degree:int -> int) ->
  decide:(advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o) ->
  'o array * int
(** {!algorithm} executed by {!Exec.run} under [exec] (default
    {!Exec.Sync}); returns the decisions (vertex-indexed) and the
    common round count.  Outputs and rounds are the same for every
    [exec]; under [Sharded], [decide] runs on worker domains and must
    tolerate concurrent calls on distinct views (every decision
    procedure in this repository only reads immutable oracle-built
    tables).  [max_rounds], [on_round] and [tracer] are forwarded to
    the engine — corruption campaigns cap [max_rounds] near the
    reference round count so a corrupted advice string demanding an
    absurd view depth aborts cheaply with {!Engine.Did_not_terminate};
    traced message sizes are {!msg_size}. *)

val run :
  Shades_graph.Port_graph.t ->
  rounds:int ->
  advice:Shades_bits.Bitstring.t ->
  decide:(advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o) ->
  'o array
(** [run g ~rounds ~advice ~decide] executes the view-exchange protocol
    for exactly [rounds] rounds at every node (0 allowed) and applies
    [decide ~advice view] to each node's [B^rounds]. *)

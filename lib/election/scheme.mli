(** Algorithms with advice (the paper's framework).

    A scheme pairs an oracle — which sees the whole port-labeled graph
    and emits one binary string — with a distributed algorithm that every
    node runs on (degree, advice, gathered view).  The same advice string
    goes to every node: it cannot add asymmetry, only expose it.

    Running a scheme reports the advice size in bits (the paper's
    complexity measure) and the number of communication rounds used. *)

type 'o t = {
  name : string;
  oracle : Shades_graph.Port_graph.t -> Shades_bits.Bitstring.t;
      (** Computes the advice for a given network. *)
  rounds_of : advice:Shades_bits.Bitstring.t -> degree:int -> int;
      (** How many rounds the node algorithm runs, derived from local
          knowledge only (advice + own degree). *)
  decide : advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o;
      (** The node's output as a function of its gathered view. *)
}

type 'o run = {
  outputs : 'o array;  (** vertex-indexed (oracle-side bookkeeping) *)
  rounds : int;  (** communication rounds used *)
  advice_bits : int;  (** length of the advice string *)
}

(** The scheme's node algorithm with the common [advice] applied: the
    view-exchange protocol ({!Shades_localsim.Full_info.algorithm})
    deciding by [decide ~advice].  It is what {!run} executes; adversary
    experiments hand it to the engine entry points that are not
    execution modes ({!Shades_localsim.Engine.run_with_faults},
    {!Shades_localsim.Async_engine.run_plan}).  One value serves one
    run. *)
val algorithm :
  'o t ->
  advice:Shades_bits.Bitstring.t ->
  ( Shades_views.View_tree.t Shades_localsim.Full_info.state,
    Shades_views.View_tree.t Shades_localsim.Full_info.msg,
    'o )
  Shades_localsim.Engine.algorithm

(** Execute the scheme on [g] through the LOCAL simulator (the node
    algorithm really exchanges messages; nothing is shortcut) — the one
    run function.

    - [exec] chooses how the rounds execute (default
      {!Shades_localsim.Exec.Sync}).  Outputs and round count are the
      same under every execution; [Sharded] also reproduces the
      telemetry and trace stream, while [Async] traces additionally
      carry synchronizer markers (see
      {!Shades_localsim.Async_engine.run}).
    - [advice] forces the advice string instead of consulting the
      oracle — the primitive for fooling experiments, where the
      pigeonhole forces one string to serve two graphs, and for the
      daemon's advice cache.
    - [max_rounds] caps the engine's round budget: corruption campaigns
      set it near the reference round count so corrupted advice
      demanding an absurd view depth aborts with
      {!Shades_localsim.Engine.Did_not_terminate} instead of exchanging
      exponentially growing views.
    - [on_round] is forwarded to the engine: per-round telemetry (round
      number, cumulative messages) for the sweep runtime.
    - [tracer] receives every execution event ({!Shades_trace.Event})
      in the engine's deterministic order — attach a
      {!Shades_trace.Trace.recorder} to capture a replayable trace. *)
val run :
  ?exec:Shades_localsim.Exec.t ->
  ?advice:Shades_bits.Bitstring.t ->
  ?max_rounds:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  'o t ->
  Shades_graph.Port_graph.t ->
  'o run

(** {1 Fixed-label applications of [run]}

    Each is one application of {!run}, kept only because the
    repository benchmark ([perfbench/]), whose sources are frozen,
    calls them with these labels.  New code calls {!run}. *)

(** [run ~advice]. *)
val run_with_advice :
  ?max_rounds:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  'o t ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  'o run

(** [run ~exec:(Async {seed})], [seed] defaulting to 0. *)
val run_async :
  ?seed:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  'o t ->
  Shades_graph.Port_graph.t ->
  'o run

(** [run ~exec:(Sharded {domains}) ~advice]. *)
val run_sharded_with_advice :
  ?domains:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  'o t ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  'o run

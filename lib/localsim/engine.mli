(** Synchronous message-passing engine for the LOCAL model.

    All nodes start simultaneously and proceed in synchronous rounds.  In
    each round every node may send one (arbitrary) message per port; all
    messages are delivered before the next round.  Nodes are anonymous:
    an algorithm sees only its degree, the common advice string, its
    ports, and the arrival ports of incoming messages — never a vertex
    index. *)

type ('state, 'msg, 'output) algorithm = {
  init : degree:int -> advice:Shades_bits.Bitstring.t -> 'state;
      (** Initial state; a node initially knows only its own degree and
          the advice (the same string at every node). *)
  send : 'state -> port:int -> 'msg option;
      (** Message to emit on [port] this round, if any. *)
  step : 'state -> (int * 'msg) list -> 'state;
      (** Advance one round. The inbox lists [(p, m)] for each message
          [m] that arrived on the node's own port [p], in increasing
          port order. *)
  output : 'state -> 'output option;
      (** [Some o] once the node has decided; polled after [init]
          (round 0) and after every [step].  A decided node has halted:
          from the next round on it sends nothing, its [step] is never
          called again (its state is frozen), and messages addressed to
          it are discarded.  In particular a node decided at round 0
          never communicates at all — the same short-circuit whether
          some or all nodes decide at initialization. *)
}

type 'output result = {
  outputs : 'output array;  (** indexed by vertex (oracle-side view) *)
  rounds : int;  (** rounds executed until every node had decided *)
  messages : int;
      (** total messages sent (one per port per round where [send]
          returned [Some]) — the classical message-complexity measure *)
}

type crash = { victim : int; at_round : int }
(** One crash-stop fault: [victim] halts at the start of round
    [at_round] — from that round on it sends nothing, its [step] is
    never called, it never decides, and messages addressed to it are
    discarded; peers observe only silence (they are never told).
    [at_round <= 0] means the node is dead from initialization: it
    never sends and its init-time decision, if any, is void —
    equivalent, for every other node, to deleting the victim's outgoing
    messages entirely. *)

type 'output faulty = {
  outputs : 'output option array;
      (** per-vertex decisions; [None] for crashed (or undecided at the
          bound — impossible on normal return) nodes *)
  rounds : int;  (** rounds executed until every live node had decided *)
  messages : int;
}
(** Result of a faulty run: crashed nodes have no output, so the array
    is option-valued — the fault-free {!result} stays total. *)

exception Did_not_terminate of int
(** Raised by {!run} when some node — some {e live} node, under a fault
    plan — is still undecided after the round bound. *)

val crash_schedule : n:int -> crash list -> int array
(** The normalized per-vertex crash round ([max_int] = never): duplicate
    victims collapse to their earliest crash, negative rounds clamp
    to 0.  Exposed for engine implementations and tests; {!run_with_faults}
    applies it internally.
    @raise Invalid_argument on a victim outside [0 .. n-1]. *)

(** [run g ~advice alg] executes [alg] at every node of [g] with the
    same [advice].  Terminates at the first round where all nodes have
    an output.  [max_rounds] bounds the number of rounds executed and
    defaults to [4 * order g + 16] — linear in the order with slack, a
    budget no minimum-time scheme in this repository approaches.

    [on_round] is a telemetry hook: it is invoked once per executed
    round, after delivery, with the (1-based) round number and the
    cumulative message count — the feed for [Shades_runtime.Metrics]
    counters without touching the result type.

    [tracer] receives one {!Shades_trace.Event.t} per observable action,
    in a deterministic order: per node [Advice_read] (then [Decide] +
    [Halt] for round-0 deciders), then per round [Round_start], every
    [Send] (vertex- then port-ascending), and per undecided node its
    [Deliver]s in arrival-port order followed by [Decide]/[Halt] when
    its output appears.  Re-running the same algorithm on the same
    graph and advice reproduces the stream exactly — the contract
    {!Shades_trace.Replay} checks.  [msg_size] measures messages for
    the [Send]/[Deliver] events' [size] field (default [fun _ -> 0];
    it must be a pure function of the message for traces to replay).

    [domains] (default [1]) is how many domains execute each round.
    The vertices are split into [min domains (order g)] contiguous
    shards; every round, each shard writes its nodes' sends into one
    flat cell per (vertex, port), and after a barrier each shard reads
    its nodes' inboxes from the far-end cells.  With one shard both
    phases run inline in the calling domain and no worker domain is
    created.  Sharding is exact: outputs, round and message counts,
    [on_round] calls and the [tracer] stream are identical at every
    domain count, because [init], the round-0 [output] probes,
    [on_round] and [tracer] always run on the calling domain (shard
    events are buffered and flushed in vertex order).  With
    [domains > 1], [send], [step] and [output] run on worker domains
    and must be safe for disjoint-vertex parallelism: pure functions
    of the node's own state plus reads of shared immutable data, as
    every algorithm in this repository is. *)
val run :
  ?max_rounds:int ->
  ?domains:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  ?msg_size:('msg -> int) ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  ('state, 'msg, 'output) algorithm ->
  'output result

(** [run_with_faults g ~advice ~faults alg] is {!run} under a
    crash-stop fault plan.  Semantics per {!crash}: at the start of
    round [at_round] the victim goes permanently silent.  Termination:
    the run ends at the first round where every {e live} node has
    decided (crashed nodes can never decide and do not block
    termination); {!Did_not_terminate} is raised only when live nodes
    remain undecided at [max_rounds].

    Tracing: each effective crash is recorded as [Event.Crash] — for
    [at_round >= 1], directly after that round's [Round_start] (before
    any [Send]), victims in vertex order; for [at_round <= 0], after
    the [Advice_read] block and before any round-0 [Decide].  A crash
    scheduled for a node that already decided (halted) earlier is a
    no-op and is not recorded.  With [faults = []] the event stream,
    outputs, rounds and messages are exactly {!run}'s.  Faulty runs
    always execute on one shard, in the calling domain. *)
val run_with_faults :
  ?max_rounds:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  ?msg_size:('msg -> int) ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  faults:crash list ->
  ('state, 'msg, 'output) algorithm ->
  'output faulty

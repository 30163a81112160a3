(** How a LOCAL run executes — the one execution-mode value.

    The paper separates {e what} is elected (the four shades differ
    only in each node's output and its referee) from {e how} the
    synchronous rounds are carried out.  This type is the "how", and
    every layer that chooses an engine — the sweep runtime, the
    election daemon, the CLI — spells that choice as an {!t}:

    - {!Sync}: the round-driven {!Engine} on one shard, in the calling
      domain.
    - {!Sharded}: the same {!Engine} with its rounds split over several
      domains ({!Engine.run}'s [domains]).  Outputs, rounds, telemetry
      and traces are identical to {!Sync} at every domain count —
      sharding is an execution detail, which is why {!trace_engine}
      maps it to [Sync].
    - {!Async}: the α-synchronizer ({!Async_engine}) under seeded
      adversarial delays — the paper's remark that the synchronous
      process survives asynchrony through time-stamps.  Same outputs
      and round count as {!Sync}; the event stream additionally
      carries synchronizer markers and a seed-dependent interleaving.

    Crash-stop fault plans ({!Engine.run_with_faults}) and explicit
    delay plans ({!Async_engine.run_plan}) are adversary experiments,
    not user-selectable modes, and are deliberately absent here. *)

type t =
  | Sync
  | Sharded of { domains : int option }
      (** [None] = [Shades_pool.default_domains ()] *)
  | Async of { seed : int }  (** seed of the delay PRNG *)

val parse :
  domains:(unit -> int option) -> seed:(unit -> int) -> string ->
  (t, string) result
(** [parse ~domains ~seed name] — the one engine-name parser, shared
    by the CLI's [--engine] flags and the daemon's [engine] request
    field.  Names: ["sync"] (alias ["sequential"], ["seq"]),
    ["sharded"], ["async"], in any ASCII case (["SYNC"] is ["sync"]).
    [domains] is consulted only for ["sharded"] and [seed] only for
    ["async"], so a reader may fail on a malformed field that the named
    engine would never use.  An unknown name is an [Error] naming the
    accepted spellings. *)

val of_trace_engine : Shades_trace.Trace.engine -> t
(** The execution that reproduces a recorded trace's engine. *)

val trace_engine : t -> Shades_trace.Trace.engine
(** What a trace records for this execution: {!Sharded} maps to
    [Sync], so sharding stays invisible in traces, labels and stored
    records. *)

val to_string : t -> string
(** The daemon's reply echo: ["sync"], ["sharded"] or
    ["async(seed=N)"] (the async spelling is
    {!Shades_trace.Trace.engine_to_string}'s).  Persisted in cached
    elect results — changing it needs a [Versions.result] bump. *)

val key : t -> string
(** The engine part of an elect result key: ["sync"], ["sharded"] or
    ["async-sN"].  The domain count is deliberately absent — sharded
    execution is observationally identical at every count.  Persisted
    in cache keys — changing it needs a [Versions.result] bump. *)

val run :
  ?exec:t ->
  ?max_rounds:int ->
  ?on_round:(round:int -> messages:int -> unit) ->
  ?tracer:(Shades_trace.Event.t -> unit) ->
  ?msg_size:('msg -> int) ->
  Shades_graph.Port_graph.t ->
  advice:Shades_bits.Bitstring.t ->
  ('state, 'msg, 'output) Engine.algorithm ->
  'output Engine.result
(** Execute [alg] under [exec] (default {!Sync}): the single dispatch
    over {!Engine.run} (one shard for {!Sync}, [domains] shards for
    {!Sharded}) and {!Async_engine.run}.  Every argument keeps the
    meaning it has there.
    @raise Engine.Did_not_terminate as those engines do. *)

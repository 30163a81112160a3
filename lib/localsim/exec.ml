module Trace = Shades_trace.Trace

type t = Sync | Sharded of { domains : int option } | Async of { seed : int }

let parse ~domains ~seed name =
  match String.lowercase_ascii name with
  | "sync" | "sequential" | "seq" -> Ok Sync
  | "sharded" -> Ok (Sharded { domains = domains () })
  | "async" -> Ok (Async { seed = seed () })
  | _ ->
      Error
        (Printf.sprintf "unknown engine: %s (expected sync, sharded or async)"
           name)

let of_trace_engine = function
  | Trace.Sync -> Sync
  | Trace.Async { seed } -> Async { seed }

let trace_engine = function
  | Sync | Sharded _ -> Trace.Sync
  | Async { seed } -> Trace.Async { seed }

let to_string = function
  | Sharded _ -> "sharded"
  | (Sync | Async _) as e -> Trace.engine_to_string (trace_engine e)

let key = function
  | Sync -> "sync"
  | Sharded _ -> "sharded"
  | Async { seed } -> Printf.sprintf "async-s%d" seed

let run ?(exec = Sync) ?max_rounds ?on_round ?tracer ?msg_size g ~advice alg =
  match exec with
  | Sync -> Engine.run ?max_rounds ?on_round ?tracer ?msg_size g ~advice alg
  | Sharded { domains } ->
      let domains =
        match domains with Some d -> d | None -> Shades_pool.default_domains ()
      in
      Engine.run ?max_rounds ~domains ?on_round ?tracer ?msg_size g ~advice alg
  | Async { seed } ->
      Async_engine.run ?max_rounds ~seed ?on_round ?tracer ?msg_size g ~advice
        alg

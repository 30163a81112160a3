(** Alias of {!Shades_pool}, the domain worker pool.

    The implementation moved to its own library so the LOCAL simulator
    (which the runtime depends on) can reuse [Crew] workers and
    barriers.  The alias stays because the repository benchmark
    ([perfbench/serve.ml]), whose sources are frozen, reaches the pool
    as [Shades_runtime.Pool]. *)

include module type of Shades_pool

(* The pool implementation lives in [Shades_pool] so that libraries
   underneath the runtime (notably [Shades_localsim.Engine])
   can share the same crews without a dependency cycle; this alias
   keeps the historical [Shades_runtime.Pool] path working. *)
include Shades_pool

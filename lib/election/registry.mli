(** The task registry: each of the four shades bound to its
    minimum-time scheme, its referee and the shape of its payload.

    This is the one task → (scheme, referee) table; the daemon, the
    CLI and the corruption campaigns all read it instead of spelling
    their own. *)

(** One shade, existentially packed over its payload type ['p]:
    consumers iterate uniformly over all four and recover ['p] by
    matching on [payload]. *)
type impl =
  | Impl : {
      kind : Task.kind;
      scheme : 'p Task.answer Scheme.t;
          (** the minimum-time scheme: {!Select_by_view.scheme} for S,
              the {!Map_advice} schemes for PE, PPE and CPPE *)
      verify :
        Shades_graph.Port_graph.t ->
        'p Task.answer array ->
        (Shades_graph.Port_graph.vertex, string) result;
          (** the referee ({!Verify}): the leader, or why the outputs
              fail the task *)
      payload : 'p Task.payload;  (** the witness of ['p] *)
    }
      -> impl

val of_kind : Task.kind -> impl
(** The registry entry of a task. *)

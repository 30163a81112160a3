type impl =
  | Impl : {
      kind : Task.kind;
      scheme : 'p Task.answer Scheme.t;
      verify :
        Shades_graph.Port_graph.t ->
        'p Task.answer array ->
        (Shades_graph.Port_graph.vertex, string) result;
      payload : 'p Task.payload;
    }
      -> impl

let of_kind kind =
  let impl scheme verify payload = Impl { kind; scheme; verify; payload } in
  match kind with
  | Task.S -> impl Select_by_view.scheme Verify.selection Task.Unit
  | Task.PE -> impl Map_advice.port_election Verify.port_election Task.Port
  | Task.PPE ->
      impl Map_advice.port_path_election Verify.port_path_election Task.Ports
  | Task.CPPE ->
      impl Map_advice.complete_port_path_election
        Verify.complete_port_path_election Task.Port_pairs

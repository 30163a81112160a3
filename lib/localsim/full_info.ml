module View_tree = Shades_views.View_tree

type 'v state = {
  target : int; (* rounds of view exchange still to perform *)
  view : 'v; (* B^r after r executed rounds *)
}

(* Messages carry the sending port: the receiver on its port [p] needs
   the far-end port [q] of that edge to extend its view, and the engine
   only reports arrival ports. *)
type 'v msg = { from_port : int; view : 'v }

(* One round: send (my port, B^r) on every port; B^{r+1} is rebuilt from
   my degree and the received (far port, neighbour's B^r) pairs. *)
let exchange ~leaf ~node ~degree_of ~rounds_of ~decide =
  let decided = ref None in
  let rounds_of ~advice ~degree =
    let r = rounds_of ~advice ~degree in
    (match !decided with
    | None -> decided := Some r
    | Some r' -> assert (r = r'));
    r
  in
  {
    Engine.init =
      (fun ~degree ~advice ->
        { target = rounds_of ~advice ~degree; view = leaf degree });
    send =
      (fun st ~port ->
        if st.target = 0 then None
        else Some { from_port = port; view = st.view });
    step =
      (fun st inbox ->
        if st.target = 0 then st
        else begin
          let degree = degree_of st.view in
          assert (List.length inbox = degree);
          let children = Array.make degree (0, st.view) in
          List.iter
            (fun (p, m) -> children.(p) <- (m.from_port, m.view))
            inbox;
          { target = st.target - 1; view = node degree children }
        end);
    output =
      (fun st -> if st.target = 0 then Some (decide st.view) else None);
  }

let algorithm ~rounds_of ~decide =
  exchange
    ~leaf:(fun degree -> { View_tree.degree; children = [||] })
    ~node:(fun degree children -> { View_tree.degree; children })
    ~degree_of:(fun view -> view.View_tree.degree)
    ~rounds_of ~decide

let msg_size m = View_tree.node_count m.view

let run_adaptive ?exec ?max_rounds ?on_round ?tracer g ~advice ~rounds_of
    ~decide =
  let result =
    Exec.run ?exec ?max_rounds ?on_round ?tracer ~msg_size g ~advice
      (algorithm ~rounds_of ~decide:(fun view -> decide ~advice view))
  in
  (result.Engine.outputs, result.Engine.rounds)

let run g ~rounds ~advice ~decide =
  if rounds < 0 then invalid_arg "Full_info.run";
  let outputs, used =
    run_adaptive g ~advice ~rounds_of:(fun ~advice:_ ~degree:_ -> rounds)
      ~decide
  in
  assert (used = rounds);
  outputs

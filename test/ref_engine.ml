(* Test-only reference: the one-domain synchronous engine exactly as it
   stood before sharding moved into [Engine] (push delivery into
   per-vertex inboxes, sorted by port).  test_sharded checks [Engine]
   at every shard count, and under crash plans, against it. *)

module Port_graph = Shades_graph.Port_graph
module Event = Shades_trace.Event

type ('state, 'msg, 'output) algorithm = {
  init : degree:int -> advice:Shades_bits.Bitstring.t -> 'state;
  send : 'state -> port:int -> 'msg option;
  step : 'state -> (int * 'msg) list -> 'state;
  output : 'state -> 'output option;
}

type 'output result = { outputs : 'output array; rounds : int; messages : int }

type crash = { victim : int; at_round : int }

type 'output faulty = {
  outputs : 'output option array;
  rounds : int;
  messages : int;
}

exception Did_not_terminate of int

(* The per-vertex crash round: [max_int] = never.  Duplicate victims
   collapse to the earliest crash; negative rounds clamp to 0 ("crashed
   from initialization"). *)
let crash_schedule ~n faults =
  let crash_at = Array.make n max_int in
  List.iter
    (fun { victim; at_round } ->
      if victim < 0 || victim >= n then
        invalid_arg "Engine: crash victim out of range";
      let r = max 0 at_round in
      if r < crash_at.(victim) then crash_at.(victim) <- r)
    faults;
  crash_at

(* Shared implementation: the fault-free [run] is the [crash_at] = all
   [max_int] instance, whose per-vertex liveness checks are single array
   reads — the hot loops stay allocation-free. *)
let run_internal ?max_rounds ?on_round ?tracer ?(msg_size = fun _ -> 0)
    ~crash_at g ~advice alg =
  let n = Port_graph.order g in
  (* flat int-array adjacency: the per-round loops below touch no
     per-vertex tuple rows *)
  let csr = Port_graph.Csr.of_graph g in
  let max_rounds =
    match max_rounds with Some m -> m | None -> (4 * n) + 16
  in
  let has_faults = Array.exists (fun r -> r < max_int) crash_at in
  let emit = match tracer with Some f -> f | None -> fun _ -> () in
  let advice_bits = Shades_bits.Bitstring.length advice in
  let states =
    Array.init n (fun v -> alg.init ~degree:(Port_graph.Csr.degree csr v) ~advice)
  in
  let outputs = Array.map alg.output states in
  (* A node crashed at round 0 never acted: its init-time decision, if
     any, is void. *)
  if has_faults then
    for v = 0 to n - 1 do
      if crash_at.(v) = 0 then outputs.(v) <- None
    done;
  (match tracer with
  | None -> ()
  | Some _ ->
      for v = 0 to n - 1 do
        emit (Event.Advice_read { v; bits = advice_bits })
      done;
      for v = 0 to n - 1 do
        if crash_at.(v) = 0 then emit (Event.Crash { v; round = 0 })
      done;
      for v = 0 to n - 1 do
        if Option.is_some outputs.(v) then begin
          emit (Event.Decide { v; round = 0 });
          emit (Event.Halt { v; round = 0 })
        end
      done);
  (* Live undecided nodes: what the round loop must still resolve.
     Crashed nodes are out of the count — they will never decide, and
     must not keep the loop running. *)
  let undecided = ref 0 in
  for v = 0 to n - 1 do
    if Option.is_none outputs.(v) && crash_at.(v) > 0 then incr undecided
  done;
  let rounds = ref 0 in
  let messages = ref 0 in
  while !undecided > 0 && !rounds < max_rounds do
    incr rounds;
    let round = !rounds in
    emit (Event.Round_start { round });
    (* Crashes taking effect this round: the victim halts before
       sending — peers see silence from here on. *)
    if has_faults then
      for v = 0 to n - 1 do
        if crash_at.(v) = round && Option.is_none outputs.(v) then begin
          emit (Event.Crash { v; round });
          decr undecided
        end
      done;
    (* Collect this round's messages from every node, then deliver: the
       two phases are separated so that delivery is truly synchronous.
       Decided nodes have halted and crashed nodes are dead — neither
       sends, and anything addressed to them is discarded. *)
    let inboxes = Array.make n [] in
    for v = 0 to n - 1 do
      if Option.is_none outputs.(v) && crash_at.(v) > round then
        for p = 0 to Port_graph.Csr.degree csr v - 1 do
          match alg.send states.(v) ~port:p with
          | None -> ()
          | Some m ->
              incr messages;
              emit
                (Event.Send
                   { round; v; port = p; size = msg_size m });
              let u = Port_graph.Csr.neighbor_vertex csr v p in
              let q = Port_graph.Csr.neighbor_port csr v p in
              inboxes.(u) <- (q, m) :: inboxes.(u)
        done
    done;
    for v = 0 to n - 1 do
      if Option.is_none outputs.(v) && crash_at.(v) > round then begin
        let inbox =
          List.sort (fun (p, _) (q, _) -> Int.compare p q) inboxes.(v)
        in
        (match tracer with
        | None -> ()
        | Some _ ->
            List.iter
              (fun (p, m) ->
                emit
                  (Event.Deliver
                     { round; v; port = p; size = msg_size m }))
              inbox);
        states.(v) <- alg.step states.(v) inbox;
        outputs.(v) <- alg.output states.(v);
        if Option.is_some outputs.(v) then begin
          decr undecided;
          emit (Event.Decide { v; round });
          emit (Event.Halt { v; round })
        end
      end
    done;
    match on_round with
    | Some f -> f ~round ~messages:!messages
    | None -> ()
  done;
  if !undecided > 0 then raise (Did_not_terminate !rounds);
  (outputs, !rounds, !messages)

let run ?max_rounds ?on_round ?tracer ?msg_size g ~advice alg =
  let crash_at = Array.make (Port_graph.order g) max_int in
  let outputs, rounds, messages =
    run_internal ?max_rounds ?on_round ?tracer ?msg_size ~crash_at g ~advice
      alg
  in
  (* no faults: termination implies every node decided *)
  ({ outputs = Array.map Option.get outputs; rounds; messages } : _ result)

let run_with_faults ?max_rounds ?on_round ?tracer ?msg_size g ~advice ~faults
    alg =
  let crash_at = crash_schedule ~n:(Port_graph.order g) faults in
  let outputs, rounds, messages =
    run_internal ?max_rounds ?on_round ?tracer ?msg_size ~crash_at g ~advice
      alg
  in
  ({ outputs; rounds; messages } : _ faulty)

module Port_graph = Shades_graph.Port_graph
module Csr = Port_graph.Csr
module Event = Shades_trace.Event
module Crew = Shades_pool.Crew

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

(* The one synchronous round loop.  The fault-free [run] is the
   [crash_at] = all [max_int] instance, whose per-vertex liveness checks
   are single array reads.

   Vertices are split into [shards] contiguous ranges.  A round has two
   phases with a barrier between them:
   - send: each shard writes its live nodes' [send] results into [out],
     one cell per (vertex, port) in CSR order — every cell has exactly
     one writer, the shard owning its vertex;
   - deliver: each shard builds each live node's inbox by reading the
     far-end cell of every port, which yields it already in port order.
   With one shard both phases run inline in the calling domain; with
   more they run on a crew.  [init], the round-0 probes, crash events,
   [tracer] and [on_round] stay on the calling domain: [init] may close
   over state that is not domain-safe (Full_info's round-count
   assertion).  With several shards, each shard buffers its events and
   the caller flushes the buffers in shard order after each phase,
   which — shards being ascending vertex ranges — is the
   vertex-ascending order of the one-shard run. *)
let run_internal ?max_rounds ?(domains = 1) ?on_round ?tracer
    ?(msg_size = fun _ -> 0) ~crash_at g ~advice alg =
  let n = Port_graph.order g in
  let csr = Csr.of_graph g in
  let max_rounds =
    match max_rounds with Some m -> m | None -> (4 * n) + 16
  in
  let has_faults = Array.exists (fun r -> r < max_int) crash_at in
  let emit = match tracer with Some f -> f | None -> fun _ -> () in
  let tracing = Option.is_some tracer in
  let advice_bits = Shades_bits.Bitstring.length advice in
  let states =
    Array.init n (fun v -> alg.init ~degree:(Csr.degree csr v) ~advice)
  in
  let outputs = Array.map alg.output states in
  (* A node crashed at round 0 never acted: its init-time decision, if
     any, is void. *)
  if has_faults then
    for v = 0 to n - 1 do
      if crash_at.(v) = 0 then outputs.(v) <- None
    done;
  if tracing then begin
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
    done
  end;
  (* Live undecided nodes: what the round loop must still resolve.
     Crashed nodes are out of the count — they will never decide, and
     must not keep the loop running. *)
  let undecided = ref 0 in
  for v = 0 to n - 1 do
    if Option.is_none outputs.(v) && crash_at.(v) > 0 then incr undecided
  done;
  let rounds = ref 0 in
  let messages = ref 0 in
  let shards = max 1 (min domains n) in
  let start = Array.init (shards + 1) (fun s -> s * n / shards) in
  let out = Array.make (Csr.cells csr) None in
  let sent = Array.make shards 0 in
  let decided = Array.make shards 0 in
  let buffers = Array.init shards (fun _ -> ref []) in
  let sink s =
    if shards = 1 then emit
    else
      let buf = buffers.(s) in
      fun e -> buf := e :: !buf
  in
  let live ~round v = Option.is_none outputs.(v) && crash_at.(v) > round in
  let send_phase ~round s () =
    let emit = sink s in
    let count = ref 0 in
    for v = start.(s) to start.(s + 1) - 1 do
      let first = Csr.cell csr v 0 in
      if live ~round v then
        for p = 0 to Csr.degree csr v - 1 do
          let m = alg.send states.(v) ~port:p in
          out.(first + p) <- m;
          match m with
          | None -> ()
          | Some m ->
              incr count;
              if tracing then
                emit (Event.Send { round; v; port = p; size = msg_size m })
        done
      else
        (* Decided nodes have halted and crashed nodes are dead: silent
           from now on.  Cleared here, by the owner, because other
           shards read these cells in the deliver phase. *)
        for c = first to first + Csr.degree csr v - 1 do
          out.(c) <- None
        done
    done;
    sent.(s) <- !count
  in
  let deliver_phase ~round s () =
    let emit = sink s in
    let count = ref 0 in
    for v = start.(s) to start.(s + 1) - 1 do
      if live ~round v then begin
        let inbox = ref [] in
        for p = Csr.degree csr v - 1 downto 0 do
          let u = Csr.neighbor_vertex csr v p in
          match out.(Csr.cell csr u (Csr.neighbor_port csr v p)) with
          | None -> ()
          | Some m -> inbox := (p, m) :: !inbox
        done;
        if tracing then
          List.iter
            (fun (p, m) ->
              emit (Event.Deliver { round; v; port = p; size = msg_size m }))
            !inbox;
        states.(v) <- alg.step states.(v) !inbox;
        outputs.(v) <- alg.output states.(v);
        if Option.is_some outputs.(v) then begin
          incr count;
          if tracing then begin
            emit (Event.Decide { v; round });
            emit (Event.Halt { v; round })
          end
        end
      end
    done;
    decided.(s) <- !count
  in
  let flush () =
    Array.iter
      (fun buf ->
        List.iter emit (List.rev !buf);
        buf := [])
      buffers
  in
  let rounds_loop run_phase =
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
      run_phase (send_phase ~round);
      messages := Array.fold_left ( + ) !messages sent;
      flush ();
      run_phase (deliver_phase ~round);
      undecided := Array.fold_left ( - ) !undecided decided;
      flush ();
      match on_round with
      | Some f -> f ~round ~messages:!messages
      | None -> ()
    done
  in
  if !undecided > 0 && max_rounds > 0 then
    if shards = 1 then rounds_loop (fun phase -> phase 0 ())
    else begin
      let crew = Crew.create ~domains:shards () in
      Fun.protect
        ~finally:(fun () -> Crew.shutdown crew)
        (fun () ->
          rounds_loop (fun phase ->
              Crew.run_all crew (Array.init shards phase)))
    end;
  if !undecided > 0 then raise (Did_not_terminate !rounds);
  (outputs, !rounds, !messages)

let run ?max_rounds ?domains ?on_round ?tracer ?msg_size g ~advice alg =
  let crash_at = Array.make (Port_graph.order g) max_int in
  let outputs, rounds, messages =
    run_internal ?max_rounds ?domains ?on_round ?tracer ?msg_size ~crash_at g
      ~advice alg
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

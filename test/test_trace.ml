(* Tests for the execution-trace subsystem: codec round-trips and
   rejection, the bounded recorder, sync-vs-async diffing on real
   election runs, and deterministic replay with divergence location. *)

open Shades_trace
open Shades_graph
open Shades_election
open Shades_families
module Exec = Shades_localsim.Exec

let no_advice = Shades_bits.Bitstring.empty

(* A trace exercising every constructor, extreme field values, an async
   engine with a negative seed, a non-empty dropped count, and a label
   with non-ASCII bytes. *)
let sample_trace =
  {
    Trace.meta =
      {
        Trace.engine = Trace.Async { seed = -3 };
        graph_order = 7;
        advice_bits = 123;
        label = "u 4,1 σ=1";
      };
    dropped = 5;
    events =
      [|
        Event.Round_start { round = 0 };
        Event.Advice_read { v = 0; bits = 0 };
        Event.Send { round = 1; v = 2; port = 0; size = 0 };
        Event.Deliver { round = 1; v = 3; port = 2; size = 99_999 };
        Event.Decide { v = 4; round = 2 };
        Event.Halt { v = 4; round = 2 };
        Event.Sync_marker { round = 3; v = 6; port = 1 };
      |];
  }

let test_codec_round_trip () =
  Alcotest.(check bool)
    "decode (encode t) = t, all constructors" true
    (Codec.decode (Codec.encode sample_trace) = Ok sample_trace);
  let sync_empty =
    {
      Trace.meta =
        { Trace.engine = Trace.Sync; graph_order = 0; advice_bits = 0; label = "" };
      dropped = 0;
      events = [||];
    }
  in
  Alcotest.(check bool)
    "empty sync trace round-trips" true
    (Codec.decode (Codec.encode sync_empty) = Ok sync_empty);
  Alcotest.(check bool)
    "encoding is deterministic" true
    (Codec.encode sample_trace = Codec.encode sample_trace)

let test_codec_rejects () =
  let blob = Codec.encode sample_trace in
  (* no prefix of a valid file is itself valid *)
  let truncation_ok = ref true in
  for len = 0 to String.length blob - 1 do
    match Codec.decode (String.sub blob 0 len) with
    | Ok _ -> truncation_ok := false
    | Error _ -> ()
  done;
  Alcotest.(check bool) "every truncated prefix rejected" true !truncation_ok;
  let expect_error name s =
    Alcotest.(check bool) name true (Result.is_error (Codec.decode s))
  in
  expect_error "trailing junk rejected" (blob ^ "x");
  expect_error "garbage rejected" "this is not a trace file at all";
  expect_error "empty rejected" "";
  let bad_magic = Bytes.of_string blob in
  Bytes.set bad_magic 0 'X';
  expect_error "bad magic rejected" (Bytes.to_string bad_magic);
  let bad_version = Bytes.of_string blob in
  Bytes.set bad_version 4 (Char.chr (Codec.format_version + 1));
  expect_error "foreign format version rejected" (Bytes.to_string bad_version);
  (* corrupting an interior payload byte must never crash the decoder:
     it either reads different events or errors, but stays total *)
  let corrupt = Bytes.of_string blob in
  Bytes.set corrupt (String.length blob - 3) '\xff';
  match Codec.decode (Bytes.to_string corrupt) with
  | Ok _ | Error _ -> ()

(* --- hostile blobs: the decoder allocates only what the blob pays for --- *)

(* A well-formed header around [payload] bits: magic, version, and the
   exact bit length, so only the payload parser can object. *)
let blob_of_bits bits =
  let module Bitstring = Shades_bits.Bitstring in
  let len = Bitstring.length bits in
  Shades_versions.Versions.shtr_magic
  ^ String.make 1 (Char.chr Codec.format_version)
  ^ String.init 8 (fun i -> Char.chr ((len lsr (8 * (7 - i))) land 0xff))
  ^ Bytes.to_string (Bitstring.to_packed bits)

module W = Shades_bits.Writer

(* Sync metadata whose graph order is written by [order] (default 0)
   and whose label length is written by [label] (and nothing after it),
   or else an empty label followed by an event count claiming [count]. *)
let hostile_blob ?(order = fun w -> W.gamma w 0) ?label ?(count = 0) () =
  let w = W.create () in
  W.bit w false;
  order w;
  W.gamma w 0;
  (match label with
  | Some write_length -> write_length w
  | None ->
      W.gamma w 0;
      W.gamma w 0;
      W.gamma w count);
  blob_of_bits (W.contents w)

(* A gamma code with a [width]-bit unary prefix and an all-zero tail. *)
let wide_gamma width w =
  W.unary w width;
  for _ = 1 to width do
    W.bit w false
  done

let hostile_blobs =
  [
    ("2^25 events", hostile_blob ~count:(1 lsl 25) ());
    ("2^29 events", hostile_blob ~count:(1 lsl 29) ());
    ("2^40-byte label", hostile_blob ~label:(fun w -> W.gamma w (1 lsl 40)) ());
    ("max_int-byte label", hostile_blob ~label:(fun w -> W.gamma w max_int) ());
    (* a 64-bit gamma code: wraps to a negative length when decoded *)
    ( "overflowing label length",
      hostile_blob
        ~label:(fun w ->
          W.unary w 63;
          W.fixed w ~width:63 0)
        () );
    (* wider still: the unchecked decode shifts past the word and reads
       a non-negative garbage order, leaving an otherwise valid blob *)
    ("64-bit gamma graph order", hostile_blob ~order:(wide_gamma 64) ());
    ("70-bit gamma graph order", hostile_blob ~order:(wide_gamma 70) ());
  ]

let count_events blob = Codec.fold_events blob ~init:0 ~f:(fun n _ -> n + 1)

let test_codec_hostile_headers () =
  List.iter
    (fun (name, blob) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (%d bytes): decode is an Error" name
           (String.length blob))
        true
        (Result.is_error (Codec.decode blob));
      Alcotest.(check bool)
        (name ^ ": fold_events is an Error")
        true
        (Result.is_error (count_events blob)))
    hostile_blobs

(* Mutate one byte of a real recording, truncate it, and re-stamp the
   header's bit length to the truncated payload so the header check
   passes and the payload parser sees the damage.  Whatever comes out,
   both readers answer with a value, never an exception. *)
let prop_codec_total =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let r = Trace.recorder () in
  ignore (Scheme.run ~tracer:(Trace.emit r) Select_by_view.scheme g);
  let blob =
    Codec.encode
      (Trace.capture r
         { Trace.engine = Trace.Sync; graph_order = 0; advice_bits = 0; label = "x" })
  in
  let header = String.length Shades_versions.Versions.shtr_magic + 9 in
  let payload = String.length blob - header in
  QCheck.Test.make ~name:"decode and fold_events are total under damage"
    ~count:300
    QCheck.(triple (int_bound (payload - 1)) (int_bound 255) (int_bound payload))
    (fun (pos, byte, keep) ->
      let b = Bytes.of_string (String.sub blob header payload) in
      Bytes.set b pos (Char.chr byte);
      let bits =
        Shades_bits.Bitstring.of_packed
          (Bytes.sub b 0 keep) (8 * keep)
      in
      let damaged = blob_of_bits bits in
      let total f = match f damaged with Ok _ | Error _ -> true in
      total Codec.decode && total count_events)

let test_recorder_ring () =
  let r = Trace.recorder ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit r (Event.Round_start { round = i })
  done;
  let meta =
    { Trace.engine = Trace.Sync; graph_order = 1; advice_bits = 0; label = "ring" }
  in
  let t = Trace.capture r meta in
  Alcotest.(check int) "total counts everything" 10 (Trace.total r);
  Alcotest.(check int) "dropped = overflow" 6 t.Trace.dropped;
  Alcotest.(check bool)
    "retained = most recent, oldest first" true
    (t.Trace.events
    = Array.of_list
        (List.map (fun round -> Event.Round_start { round }) [ 7; 8; 9; 10 ]));
  Alcotest.(check bool)
    "capture is repeatable" true
    (Trace.capture r meta = t);
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.recorder: capacity must be positive") (fun () ->
      ignore (Trace.recorder ~capacity:0 ()))

(* --- tracing real election runs --- *)

let capture ?(label = "test") scheme g exec =
  let r = Trace.recorder () in
  ignore (Scheme.run ~exec ~tracer:(Trace.emit r) scheme g);
  Trace.capture r
    {
      Trace.engine = Exec.trace_engine exec;
      graph_order = Port_graph.order g;
      advice_bits = 0;
      label;
    }

let test_sync_trace_shape () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let n = Port_graph.order g in
  let t = capture Select_by_view.scheme g Exec.Sync in
  let s = Trace.stats t in
  Alcotest.(check int) "one Advice_read per node" n s.Trace.advice_reads;
  Alcotest.(check int) "every node decides" n s.Trace.decides;
  Alcotest.(check int) "every node halts" n s.Trace.halts;
  Alcotest.(check int) "no markers in a sync trace" 0 s.Trace.sync_markers;
  Alcotest.(check int) "sends = delivers" s.Trace.sends s.Trace.delivers;
  Alcotest.(check int) "k=1: one round" 1 s.Trace.rounds;
  Alcotest.(check (list (pair int int)))
    "per-round sends matches the stats total"
    [ (1, s.Trace.sends) ]
    (Trace.per_round_sends t)

let test_sync_vs_async_diff () =
  (* The acceptance property: on one instance, the async engine's trace
     (any seed) equals the synchronous trace modulo synchronizer
     markers — on G-class and U-class instances alike. *)
  let instances =
    [
      ( "G(3,1,i=2)",
        (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph,
        `G );
      ( "G(4,1,i=2)",
        (Gclass.build { Gclass.delta = 4; k = 1 } ~i:2).Gclass.graph,
        `G );
      ( "U(4,1,σ=1)",
        (let p = { Uclass.delta = 4; k = 1 } in
         (Uclass.build p ~sigma:(Uclass.uniform_sigma p 1)).Uclass.graph),
        `U );
    ]
  in
  List.iter
    (fun (name, g, family) ->
      let run engine =
        match family with
        | `G -> capture Select_by_view.scheme g engine
        | `U -> capture Uclass.pe_scheme g engine
      in
      let sync = run Exec.Sync in
      Alcotest.(check int)
        (name ^ ": sync trace has no markers")
        0 (Trace.stats sync).Trace.sync_markers;
      List.iter
        (fun exec ->
          let other = run exec in
          let tag what =
            Printf.sprintf "%s: %s %s" name (Exec.to_string exec) what
          in
          (* markers exactly when the trace says async: sharding is
             invisible, the α-synchronizer is not *)
          Alcotest.(check bool)
            (tag "has markers iff async")
            (Exec.trace_engine exec <> Trace.Sync)
            ((Trace.stats other).Trace.sync_markers > 0);
          Alcotest.(check (list string))
            (tag "divergence-free against sync")
            []
            (List.map Diff.pp_divergence (Diff.divergences sync other)))
        [
          Exec.Sharded { domains = Some 2 }; Exec.Async { seed = 0 };
          Exec.Async { seed = 1 }; Exec.Async { seed = 2 };
        ])
    instances

let test_diff_reports_divergence () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let t = capture Select_by_view.scheme g Exec.Sync in
  (* drop one Deliver event from the right-hand trace *)
  let eq = ref None in
  Array.iteri
    (fun i e ->
      if !eq = None then
        match e with Event.Deliver _ -> eq := Some i | _ -> ())
    t.Trace.events;
  let i = Option.get !eq in
  let removed = t.Trace.events.(i) in
  let right =
    {
      t with
      Trace.events =
        Array.of_list
          (List.filteri (fun j _ -> j <> i) (Array.to_list t.Trace.events));
    }
  in
  match Diff.first t right with
  | None -> Alcotest.fail "expected a divergence"
  | Some d ->
      Alcotest.(check bool) "left side holds the event" true (d.Diff.left = Some removed);
      Alcotest.(check bool) "right side is missing it" true (d.Diff.right = None);
      Alcotest.(check int) "round located" (Event.round removed) d.Diff.round;
      Alcotest.(check int) "vertex located" (Event.vertex removed) d.Diff.vertex

(* --- replay --- *)

let test_replay_clean () =
  let g = (Gclass.build { Gclass.delta = 4; k = 1 } ~i:2).Gclass.graph in
  (* a re-run under the recorded execution reproduces the trace
     verbatim — for async, under the same seed *)
  List.iter
    (fun exec ->
      let t = capture Select_by_view.scheme g exec in
      Alcotest.(check bool)
        (Exec.to_string exec ^ " re-run reproduces the trace")
        true
        (Replay.run t (fun tracer ->
             ignore (Scheme.run ~exec ~tracer Select_by_view.scheme g))
        = Ok ()))
    [ Exec.Sync; Exec.Sharded { domains = Some 2 }; Exec.Async { seed = 2 } ]

let test_replay_detects_mutation () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let t = capture Select_by_view.scheme g Exec.Sync in
  let exec tracer = ignore (Scheme.run ~tracer Select_by_view.scheme g) in
  (* mutate one mid-trace Send's port *)
  let idx = ref (-1) in
  Array.iteri
    (fun i e ->
      match e with
      | Event.Send _ when !idx < 0 && i > 50 -> idx := i
      | _ -> ())
    t.Trace.events;
  let events = Array.copy t.Trace.events in
  let round0, vertex0 =
    match events.(!idx) with
    | Event.Send { round; v; port; size } ->
        events.(!idx) <- Event.Send { round; v; port = port + 1; size };
        (round, v)
    | _ -> assert false
  in
  (match Replay.run { t with Trace.events } exec with
  | Ok () -> Alcotest.fail "mutation not detected"
  | Error d ->
      Alcotest.(check int) "at the mutated index" !idx d.Replay.index;
      Alcotest.(check (pair int int))
        "(round, vertex) of the mutation" (round0, vertex0)
        (Replay.location d);
      Alcotest.(check bool)
        "expected = recorded mutant" true
        (d.Replay.expected = Some events.(!idx));
      Alcotest.(check bool)
        "actual = live event" true
        (d.Replay.actual = Some t.Trace.events.(!idx)));
  (* a recorded suffix the live run never emits is caught too *)
  let padded =
    {
      t with
      Trace.events =
        Array.append t.Trace.events [| Event.Round_start { round = 99 } |];
    }
  in
  (match Replay.run padded exec with
  | Ok () -> Alcotest.fail "missing trailing event not detected"
  | Error d ->
      Alcotest.(check bool)
        "execution ended before the recorded tail" true
        (d.Replay.actual = None));
  (* an overflowed trace cannot anchor a replay *)
  let r = Trace.recorder ~capacity:2 () in
  exec (Trace.emit r);
  let overflowed = Trace.capture r t.Trace.meta in
  Alcotest.(check bool) "overflowed" true (overflowed.Trace.dropped > 0);
  match Replay.run overflowed exec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on dropped > 0"

let test_file_round_trip () =
  let g = (Gclass.build { Gclass.delta = 3; k = 1 } ~i:2).Gclass.graph in
  let t = capture ~label:"file io" Select_by_view.scheme g Exec.Sync in
  let path = Filename.temp_file "shades_trace" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write ~path t;
      Alcotest.(check bool) "read back equal" true (Codec.read ~path = Ok t));
  Alcotest.(check bool)
    "missing file is an Error, not an exception" true
    (Result.is_error (Codec.read ~path:"/nonexistent/trace.bin"))

(* The trivial algorithms also trace correctly (no scheme layer). *)
let test_engine_tracer_direct () =
  let open Shades_localsim in
  let countdown r =
    {
      Engine.init = (fun ~degree ~advice:_ -> (degree, r));
      send = (fun (_, left) ~port:_ -> if left > 0 then Some () else None);
      step = (fun (d, left) _ -> (d, left - 1));
      output = (fun (d, left) -> if left <= 0 then Some d else None);
    }
  in
  let g = Gen.oriented_ring 4 in
  let r = Trace.recorder () in
  let result =
    Engine.run ~tracer:(Trace.emit r) g ~advice:no_advice (countdown 2)
  in
  let t =
    Trace.capture r
      { Trace.engine = Trace.Sync; graph_order = 4; advice_bits = 0; label = "" }
  in
  let s = Trace.stats t in
  Alcotest.(check int) "sends = engine messages" result.Engine.messages
    s.Trace.sends;
  Alcotest.(check int) "rounds traced" result.Engine.rounds s.Trace.rounds;
  (* default msg_size is 0 *)
  Alcotest.(check int) "sizes default to 0" 0 s.Trace.send_size_total;
  (* emission prefix: advice reads first, then round 1 *)
  Alcotest.(check bool)
    "starts with one Advice_read per node" true
    (Array.for_all
       (fun e -> match e with Event.Advice_read _ -> true | _ -> false)
       (Array.sub t.Trace.events 0 4));
  Alcotest.(check bool)
    "then Round_start 1" true
    (t.Trace.events.(4) = Event.Round_start { round = 1 })

let () =
  Alcotest.run "shades_trace"
    [
      ( "codec",
        [
          Alcotest.test_case "round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "rejection" `Quick test_codec_rejects;
          Alcotest.test_case "hostile headers" `Quick
            test_codec_hostile_headers;
          QCheck_alcotest.to_alcotest prop_codec_total;
          Alcotest.test_case "file io" `Quick test_file_round_trip;
        ] );
      ( "recorder",
        [ Alcotest.test_case "bounded ring" `Quick test_recorder_ring ] );
      ( "diff",
        [
          Alcotest.test_case "sync trace shape" `Quick test_sync_trace_shape;
          Alcotest.test_case "sync = async modulo markers" `Quick
            test_sync_vs_async_diff;
          Alcotest.test_case "reports (round, vertex, event)" `Quick
            test_diff_reports_divergence;
        ] );
      ( "replay",
        [
          Alcotest.test_case "clean re-run" `Quick test_replay_clean;
          Alcotest.test_case "detects mutation" `Quick
            test_replay_detects_mutation;
          Alcotest.test_case "engine tracer direct" `Quick
            test_engine_tracer_direct;
        ] );
    ]

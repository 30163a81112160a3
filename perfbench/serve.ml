(* The three daemon workloads: request generation, the closed loop over
   two client connections, the answer checks, and the traced
   layer-by-layer re-execution of every op. *)

module Json = Shades_json.Json
module Server = Shades_server
module Client = Server.Client
module Protocol = Server.Protocol
module Cache = Server.Cache
module Service = Server.Service
module PG = Shades_graph.Port_graph
module Bitstring = Shades_bits.Bitstring
module Task = Shades_election.Task
module Scheme = Shades_election.Scheme
module Trace = Shades_trace.Trace
module Codec = Shades_trace.Codec
module Replay = Shades_trace.Replay
module Event = Shades_trace.Event
module Metrics = Shades_runtime.Metrics
module Pool = Shades_runtime.Pool

type workload = Cold | Hot | Spill

let connections = 2

(* Memory-tier capacity per cache: the daemon default for cold and hot
   (the hot working set fits it several times over), and a small tier
   for spill so that most hits come from disk. *)
let capacity = function
  | Cold | Hot -> Service.default_cache_capacity
  | Spill -> 32

(* --- generated requests --- *)

type expect =
  | Advised of { twin : int option }
      (** a renumbered copy names its original: both must get the same
          advice digest *)
  | Elected of { topo : int }  (** leader and rounds checked against [topo] *)
  | Verdict of bool
  | Replayed

type op = { id : int; kind : string; req : Json.t; expect : expect }

type step =
  | Send of op
  | Verify_last of { id : int; corrupt : bool; copy : Json.t * int array }
      (** verify the outputs the preceding elect of the same unit
          received, corrupted or not, against [copy]: the elected graph
          renumbered by the permutation, as an explicit edge list *)

type frame = Single of step | Batch of op array

(* A topology whose elections are checked: the graph as sent and the
   task. *)
type topo = { graph : Json.t; task : string }

let between st lo hi = lo + Random.State.int st (hi - lo + 1)

let request ?(extra = []) op graph task =
  Json.Obj
    ([ ("op", Json.String op); ("graph", graph); ("task", Json.String task) ]
    @ extra)

let spec s = Json.String s

let random_spec st ~lo ~hi =
  let n = between st lo hi in
  Printf.sprintf "random:%d,%d,%d" (Random.State.bits st) n (n / 2)

(* G_i of G_{delta,1}: (4i-1) blocks of 3z+3 nodes, so i sets the size;
   the class has (delta-1)^z members *)
let gclass_spec st ~delta ~i_hi =
  let members =
    Option.value (Shades_families.Gclass.num_graphs { delta; k = 1 }) ~default:i_hi
  in
  Printf.sprintf "gclass:%d,1,%d" delta (between st 2 (max 2 (min i_hi members)))

(* An explicit-edge copy of a spec graph under a seeded renumbering
   (vertex v becomes perm.(v)): a different encoding of the same
   topology. *)
let renumbering st s =
  let g = Server.Spec.parse_exn s in
  let n = PG.order g in
  let perm = Array.init n Fun.id in
  Stats.shuffle st perm;
  (Protocol.graph_to_json (PG.renumber g perm), perm)

let renumbered st s = fst (renumbering st s)

(* Draw specs until one not used before in this stream; a small shape
   space that runs dry falls back to a fresh random graph of the same
   cost class. *)
let distinct used ~fallback draw =
  let rec go tries =
    let s = if tries = 0 then fallback () else draw () in
    if Hashtbl.mem used s then go (max 0 (tries - 1))
    else (
      Hashtbl.replace used s ();
      s)
  in
  go 20

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* --- verify-trace blobs, recorded in-process at set-up --- *)

let record_trace ~task ~spec ~engine =
  let g = Server.Spec.parse_exn spec in
  let (Tasks.Impl { scheme; _ }) = Tasks.impl (Tasks.kind_of_string task) in
  let r = Trace.recorder ~capacity:(1 lsl 16) () in
  (match engine with
  | Trace.Sync -> ignore (Scheme.run ~tracer:(Trace.emit r) scheme g)
  | Trace.Async { seed } ->
      ignore (Scheme.run_async ~seed ~tracer:(Trace.emit r) scheme g));
  let draft =
    Trace.capture r
      {
        Trace.engine;
        graph_order = PG.order g;
        advice_bits = 0;
        label = task ^ " " ^ spec;
      }
  in
  let advice_bits =
    Array.fold_left
      (fun acc -> function Event.Advice_read { bits; _ } -> max acc bits | _ -> acc)
      0 draft.Trace.events
  in
  Codec.encode
    { draft with Trace.meta = { draft.Trace.meta with Trace.advice_bits } }

(* --- serve-cold: every op misses both cache tiers --- *)

let cold_units = 1500

(* Specs are seeded and distinct, in narrow size bands so that each op
   kind costs about the same on every seed: Selection and Port Election
   pay the O(n (n+m)) canonical digest at n ~ 250, and map-advice
   elections come from the calibrated catalogue.  Every share drawn
   below (unit, advise and elect mixes, twins, corrupted verifies) is an
   assumption, not a measurement: README.md lists each with its reason. *)
let cold ~seed ~catalog =
  let st = Random.State.make [| seed; 1 |] in
  let used = Hashtbl.create 4096 in
  let next_id = ref 0 in
  let op kind req expect =
    incr next_id;
    { id = !next_id; kind; req; expect }
  in
  let topos = ref [] and ntopos = ref 0 in
  let topo graph task =
    topos := { graph; task } :: !topos;
    incr ntopos;
    !ntopos - 1
  in
  let originals = ref [] and noriginals = ref 0 in
  let band () = random_spec st ~lo:230 ~hi:270 in
  let draw = Catalog.drawer catalog st in
  (* a catalogue graph, or once the task's graphs are used up, a
     renumbered copy of one: a new encoding of a calibrated topology *)
  let mapped task =
    match draw task with
    | Some s -> spec s
    | None ->
        let specs = Hashtbl.find catalog task in
        renumbered st specs.(Random.State.int st (Array.length specs))
  in
  let blobs =
    List.map
      (fun (task, spec, engine) ->
        Json.Obj
          [
            ("op", Json.String "verify-trace");
            ( "trace",
              Json.String (Protocol.hex_encode (record_trace ~task ~spec ~engine))
            );
          ])
      [
        ("s", "gclass:3,1,2", Trace.Sync);
        ("cppe", "star:5", Trace.Sync);
        ("pe", "star:7", Trace.Sync);
        ("s", "gclass:3,1,2", Trace.Async { seed = seed land 0xffff });
      ]
    |> Array.of_list
  in
  (* every mix below is drawn in stratified blocks *)
  let twin = Stats.stratified st [| 85; 15 |]
  and advise_kind = Stats.stratified st [| 3; 1; 1; 1; 2; 2 |]
  and elect_kind = Stats.stratified st [| 2; 2; 2; 6; 6; 2 |]
  and corrupt = Stats.stratified st [| 3; 1 |]
  and unit_kind = Stats.stratified st [| 47; 40; 3; 10 |] in
  let advise () =
    if twin () = 1 && !noriginals > 0 then
      (* a renumbered copy of an earlier advise: misses the encoding
         memo, pays the digest, then hits the advice cache *)
      let orig, s, task = List.nth !originals (Random.State.int st !noriginals) in
      op "advise" (request "advise" (renumbered st s) task) (Advised { twin = Some orig })
    else
      let graph, task =
        match advise_kind () with
        | 0 -> (distinct used ~fallback:band band, "s")
        | 1 -> (distinct used ~fallback:band band, "pe")
        | 2 ->
            ( distinct used ~fallback:band (fun () -> Printf.sprintf "path:%d" (between st 230 270)),
              if Random.State.bool st then "s" else "pe" )
        | 3 ->
            ( distinct used ~fallback:band (fun () -> Printf.sprintf "star:%d" (between st 250 350)),
              [| "s"; "pe"; "ppe"; "cppe" |].(Random.State.int st 4) )
        | 4 ->
            ( distinct used ~fallback:band (fun () -> gclass_spec st ~delta:5 ~i_hi:8),
              if Random.State.bool st then "s" else "pe" )
        | _ -> ("", if Random.State.bool st then "ppe" else "cppe")
      in
      let graph = if graph = "" then mapped task else spec graph in
      let o = op "advise" (request "advise" graph task) (Advised { twin = None }) in
      (match graph with
      | Json.String s ->
          originals := (o.id, s, task) :: !originals;
          incr noriginals
      | _ -> ());
      o
  in
  let elect () =
    let graph, task, extra, copy =
      match elect_kind () with
      | (0 | 1 | 2) as k ->
          let task = [| "pe"; "ppe"; "cppe" |].(k) in
          (mapped task, task, [], None)
      | (3 | 4) as k ->
          let s = distinct used ~fallback:band (fun () -> random_spec st ~lo:190 ~hi:230) in
          ( spec s,
            "s",
            (if k = 3 then [ ("engine", Json.String "sync") ]
             else [ ("engine", Json.String "sharded"); ("domains", Json.Int 2) ]),
            Some (renumbering st s) )
      | _ ->
          let s = gclass_spec st ~delta:(between st 3 4) ~i_hi:6 in
          ( spec s,
            "s",
            [ ("engine", Json.String "async"); ("seed", Json.Int (Random.State.bits st)) ],
            None )
    in
    let t = topo graph task in
    let e = op "elect" (request ~extra "elect" graph task) (Elected { topo = t }) in
    (* the sync and sharded Selection elects (n ~ 200) are verified on a
       renumbered copy, a new encoding: the verify misses the memo too
       and pays the canonical digest, like every other cold op *)
    match copy with
    | None -> [ Single (Send e) ]
    | Some copy ->
        incr next_id;
        [ Single (Send e);
          Single (Verify_last { id = !next_id; corrupt = corrupt () = 1; copy }) ]
  in
  let traces = ref 0 in
  let units =
    Array.init cold_units (fun _ ->
        match unit_kind () with
        | 0 -> [ Single (Send (advise ())) ]
        | 1 -> elect ()
        | 2 ->
            incr traces;
            [ Single (Send (op "verify-trace" blobs.(!traces mod Array.length blobs) Replayed)) ]
        | _ ->
            [
              Batch
                (Array.init 16 (fun _ ->
                     let s = distinct used ~fallback:band (fun () -> random_spec st ~lo:100 ~hi:120) in
                     op "advise" (request "advise" (spec s) "s") (Advised { twin = None })));
            ])
  in
  let parts =
    Array.to_list units
    |> List.concat_map (fun frames ->
           List.concat_map
             (function
               | Single (Send o) -> [ Json.to_string o.req ]
               | Single (Verify_last { corrupt; _ }) ->
                   [ (if corrupt then "verify-corrupt" else "verify") ]
               | Batch ops -> Array.to_list (Array.map (fun o -> Json.to_string o.req) ops))
             frames)
  in
  (Array.of_list (List.rev !topos), units, digest_of parts)

(* --- serve-hot and serve-spill: byte-identical repeats --- *)

(* A topology slot of the repeat workloads.  The slot index fixes the
   shape class, the size, the task, and whether the graph travels as a
   spec string or as an explicit edge list under a seeded renumbering
   (half of the hot slots, so framing is real work);
   the seed only picks the graph inside the class (random graphs, the
   renumbering, catalogue draws).  Sizes are graded across slots, so
   the latency mix is the same on every seed and has no gaps for a
   median to fall into.  Map-advice tasks (PE, PPE, CPPE) only get small
   graphs: their elections cost seconds beyond a few dozen nodes. *)
let repeat_slot st ~draw workload i =
  let n = match workload with Spill -> 60 + (i * 37 mod 100) | _ -> 200 + (i * 37 mod 200) in
  let port_task = [| "pe"; "ppe"; "cppe" |].(i / 10 mod 3) in
  (* spill sends spec strings only, so its frame count stays far above
     the 10 000 at which the tail moves from p99 to p99.9 (as explicit
     edge lists it came to 10 900) *)
  let explicit s = if workload = Spill then spec s else renumbered st s in
  let random n = Printf.sprintf "random:%d,%d,%d" (Random.State.bits st) n (n / 2) in
  let mapped task = spec (Option.get (draw task)) in
  match (workload, i mod 10) with
  | Hot, _ when i < 8 ->
      (* the eight most requested topologies are alike: they take two
         thirds or more of each kind's Zipf weight, so each kind's median
         falls inside one homogeneous group, not at its edge *)
      (explicit (random 300), "s")
  | Hot, 9 when i mod 20 = 9 ->
      (* the largest graphs, so framing and parsing are real work *)
      (explicit (random 800), "s")
  | _, 0 -> (spec (random n), "s")
  | _, 1 -> (explicit (random n), "s")
  | _, 2 -> (spec (Printf.sprintf "gclass:5,1,%d" (5 + (i / 10))), "s")
  | _, 3 -> (explicit (Printf.sprintf "path:%d" n), "s")
  | _, 4 -> (spec (Printf.sprintf "star:%d" (8 + (i mod 23))), port_task)
  | _, 5 -> (spec (random n), "s")
  | _, 6 -> (mapped port_task, port_task)
  | _, 7 -> (explicit (Printf.sprintf "star:%d" n), "s")
  | _, 8 -> (spec (Printf.sprintf "path:%d" (n + 1)), "s")
  | _ -> (explicit (Option.get (draw port_task)), port_task)

(* Pool index [4i + j] is request j of topology i: advise, elect, honest
   verify, corrupted verify.  The verify requests carry the outputs the
   set-up elect received, so they exist only after the fill. *)
let per_topo = 4

type repeat = { topos : topo array; draws : int array array; digest : string }

let hot_topologies = 40
let spill_topologies = 96
let repeat_frames = 200_000

let repeats workload ~seed ~catalog =
  let st = Random.State.make [| seed; 2 |] in
  let draw = Catalog.drawer catalog st in
  let used = Hashtbl.create 256 in
  let ntopo = match workload with Spill -> spill_topologies | _ -> hot_topologies in
  let topos =
    Array.init ntopo (fun i ->
        (* a class too small for its slots falls back to a random
           graph of the same band *)
        let rec fresh tries =
          let graph, task =
            if tries = 0 then (spec (random_spec st ~lo:60 ~hi:160), "s")
            else repeat_slot st ~draw workload i
          in
          let key = Json.to_string graph in
          if Hashtbl.mem used key then fresh (max 0 (tries - 1))
          else (
            Hashtbl.replace used key ();
            { graph; task })
        in
        fresh 20)
  in
  let pool = ntopo * per_topo in
  let draw =
    match workload with
    | Spill -> fun () -> Random.State.int st pool
    | _ ->
        (* Zipf(1) over the pool in slot order; the exponent is an
           assumption, see README.md *)
        let cum = Array.make pool 0. in
        let acc = ref 0. in
        Array.iteri
          (fun r _ ->
            acc := !acc +. (1. /. float (r + 1));
            cum.(r) <- !acc)
          cum;
        fun () ->
          let x = Random.State.float st !acc in
          let rec search lo hi =
            if lo >= hi then lo
            else
              let mid = (lo + hi) / 2 in
              if cum.(mid) < x then search (mid + 1) hi else search lo mid
          in
          search 0 (pool - 1)
  in
  (* one frame in twelve is a 16-item batch (an assumed share, see
     README.md), drawn in stratified blocks *)
  let batch = Stats.stratified st [| 11; 1 |] in
  let draws =
    Array.init repeat_frames (fun _ ->
        if batch () = 1 then Array.init 16 (fun _ -> draw ())
        else [| draw () |])
  in
  let parts =
    Array.to_list (Array.map (fun t -> t.task ^ " " ^ Json.to_string t.graph) topos)
    @ Array.to_list
        (Array.map (fun d -> String.concat "," (Array.to_list (Array.map string_of_int d))) draws)
  in
  { topos; draws; digest = digest_of parts }

(* --- replies and checks --- *)

type record = { kind : string; ms : float; ops : int; mutable failed : int }

type run = {
  lock : Mutex.t;
  mutable records : record list;
  mutable elects : (int * Json.t * record) list;
  advised : (int, string) Hashtbl.t;  (** advise op id -> advice digest *)
  mutable twins : (int * int * record) list;
  mutable advice_bits : int list;
}

let new_run () =
  {
    lock = Mutex.create ();
    records = [];
    elects = [];
    advised = Hashtbl.create 256;
    twins = [];
    advice_bits = [];
  }

let result_of = function
  | Ok r when Json.member "ok" r = Some (Json.Bool true) -> Json.member "result" r
  | _ -> None

let int_member name j = match Json.member name j with Some (Json.Int n) -> Some n | _ -> None

(* Check one reply against its op; elect references and renumbering
   twins are compared after the run.  Called under [run.lock]. *)
let check run (r : record) (o : op) result =
  let fail () = r.failed <- r.failed + 1 in
  match result with
  | None -> fail ()
  | Some res -> (
      Option.iter (fun b -> run.advice_bits <- b :: run.advice_bits) (int_member "advice_bits" res);
      match o.expect with
      | Advised { twin } -> (
          match Json.member "digest" res with
          | Some (Json.String d) ->
              Hashtbl.replace run.advised o.id d;
              Option.iter (fun t -> run.twins <- (o.id, t, r) :: run.twins) twin
          | _ -> fail ())
      | Elected { topo } ->
          if Json.member "verified" res = Some (Json.Bool true) then
            run.elects <- (topo, res, r) :: run.elects
          else fail ()
      | Verdict v -> if Json.member "valid" res <> Some (Json.Bool v) then fail ()
      | Replayed -> if Json.member "valid" res <> Some (Json.Bool true) then fail ())

(* The outputs of an elect reply as a verify request, corrupted by
   promoting one follower to a second leader (invalid for every task).
   With [copy] the request names the renumbered graph, and the outputs
   move with their vertices. *)
let verify_request ?copy (elect : op) outputs ~corrupt =
  let member m = Option.get (Json.member m elect.req) in
  let graph, outputs =
    match (copy, outputs) with
    | Some (graph, perm), Json.List l when List.length l = Array.length perm ->
        let moved = Array.make (Array.length perm) Json.Null in
        List.iteri (fun v a -> moved.(perm.(v)) <- a) l;
        (graph, Json.List (Array.to_list moved))
    | _ -> (member "graph", outputs)
  in
  let outputs =
    if not corrupt then outputs
    else
      match outputs with
      | Json.List l ->
          let promoted = ref false in
          Json.List
            (List.map
               (fun a ->
                 if (not !promoted) && a <> Json.String "leader" then (
                   promoted := true;
                   Json.String "leader")
                 else a)
               l)
      | j -> j
  in
  Json.Obj
    [ ("op", Json.String "verify"); ("graph", graph); ("task", member "task");
      ("outputs", outputs) ]

(* After the run: renumbered copies share their original's digest, and
   every elect reply names the leader and round count of an in-process
   run of the same graph. *)
let post_check run topos =
  List.iter
    (fun (copy, orig, r) ->
      match (Hashtbl.find_opt run.advised copy, Hashtbl.find_opt run.advised orig) with
      | Some a, Some b when a <> b -> r.failed <- r.failed + 1
      | _ -> ())
    run.twins;
  let needed = List.sort_uniq compare (List.map (fun (t, _, _) -> t) run.elects) in
  let refs =
    Pool.map ~domains:2
      (fun t ->
        let { graph; task } = topos.(t) in
        match Protocol.graph_of_json graph with
        | Ok g -> (t, Some (Tasks.elect g (Tasks.kind_of_string task)))
        | Error _ -> (t, None))
      (Array.of_list needed)
  in
  let refs = Hashtbl.of_seq (Array.to_seq refs) in
  List.iter
    (fun (t, res, r) ->
      match Hashtbl.find refs t with
      | Some (Some leader, rounds)
        when int_member "leader" res = Some leader && int_member "rounds" res = Some rounds ->
          ()
      | _ -> r.failed <- r.failed + 1)
    run.elects

(* --- traced re-execution --- *)

type tracer = {
  spans : Span.t;
  svc : Service.t;  (** in-process service set up like the daemon *)
  cache : Json.t Cache.t;  (** bench-owned two-tier cache, same capacity *)
  cache_metrics : Metrics.t;
  seen : (string, unit) Hashtbl.t;  (** encodings the daemon has canonicalized *)
  gc : float array;  (** minor words, major words *)
  mutable frame_bytes : int list;
  mutable finds : (string * float) list;  (** tier hit, seconds *)
  mutable engines : (string * int * int * float) list;  (** engine, rounds, messages, seconds *)
  frames_lock : Mutex.t;
  mutable frames : answered list;  (** newest first, re-executed after the loop *)
}

(* A frame answered in the traced loop, kept for the in-process
   re-execution: its request id, its ops with their replies, and its
   round trip as the untraced run times it. *)
and answered = { op_id : int; answers : (op * Json.t) list; rtt_ms : float }

let new_tracer ~dir workload =
  let cache_metrics = Metrics.create () in
  {
    spans = Span.create ();
    svc = Service.create ~cache_capacity:(capacity workload) ~cache_dir:(Filename.concat dir "svc") ();
    cache =
      Cache.create ~name:"bench"
        ~persist:
          { Cache.dir = Filename.concat dir "cache"; encode = Json.to_string;
            decode = Json.of_string; max_bytes = None }
        ~capacity:(capacity workload) ~metrics:cache_metrics ();
    cache_metrics;
    seen = Hashtbl.create 1024;
    gc = [| 0.; 0. |];
    frame_bytes = [];
    finds = [];
    engines = [];
    frames_lock = Mutex.create ();
    frames = [];
  }

let encoding_key g =
  let bits = PG.encode g in
  Digest.to_hex
    (Digest.string
       (string_of_int (Bitstring.length bits) ^ ":"
       ^ Bytes.unsafe_to_string (Bitstring.to_packed bits)))

let counter_value metrics name =
  match List.assoc_opt name (Metrics.snapshot metrics) with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

let bool_member name j = Json.member name j = Some (Json.Bool true)

(* Re-execute one answered op in-process, one child span per layer call
   under [parent].  Which layers run mirrors what the reply says the
   daemon did: a cached reply skips oracle, engine and referee. *)
let reexec tr ~op_id ~parent (o : op) reply =
  let sp name f = Span.within tr.spans ~op:op_id ~parent name (fun _ -> f ()) in
  let req_s = sp "protocol.codec" (fun () ->
      let s = Json.to_string o.req in
      ignore (Json.of_string s);
      let r = Json.to_string reply in
      ignore (Json.of_string r);
      tr.frame_bytes <- (String.length s + String.length r) :: tr.frame_bytes;
      s)
  in
  ignore (sp ("service.handle." ^ o.kind) (fun () -> Service.handle tr.svc o.req));
  let key = Digest.to_hex (Digest.string req_s) in
  let disk0 = counter_value tr.cache_metrics "bench_disk_hits" in
  let t0 = Unix.gettimeofday () in
  let found = sp "cache.find" (fun () -> Cache.find tr.cache key) in
  let dt = Unix.gettimeofday () -. t0 in
  (match found with
  | None ->
      tr.finds <- ("miss", dt) :: tr.finds;
      sp "cache.put" (fun () -> Cache.put tr.cache key reply)
  | Some _ ->
      let tier =
        if counter_value tr.cache_metrics "bench_disk_hits" > disk0 then "disk" else "mem"
      in
      tr.finds <- (tier, dt) :: tr.finds);
  let res = Option.value (Json.member "result" reply) ~default:Json.Null in
  (match o.kind with
  | "verify-trace" ->
      let hex = match Json.member "trace" o.req with Some (Json.String h) -> h | _ -> "" in
      sp "trace.replay" (fun () ->
          match Result.bind (Protocol.hex_decode hex) Codec.decode with
          | Error _ -> ()
          | Ok trace ->
              let label = trace.Trace.meta.Trace.label in
              let i = String.index label ' ' in
              let task = Tasks.kind_of_string (String.sub label 0 i) in
              let g = Server.Spec.parse_exn (String.sub label (i + 1) (String.length label - i - 1)) in
              let (Tasks.Impl { scheme; _ }) = Tasks.impl task in
              ignore
                (Replay.run trace (fun emit ->
                     match trace.Trace.meta.Trace.engine with
                     | Trace.Sync -> ignore (Scheme.run ~tracer:emit scheme g)
                     | Trace.Async { seed } -> ignore (Scheme.run_async ~seed ~tracer:emit scheme g))))
  | kind -> (
      let graph = Option.get (Json.member "graph" o.req) in
      match sp "spec.parse" (fun () -> Protocol.graph_of_json graph) with
      | Error _ -> ()
      | Ok g ->
          let enc = sp "port_graph.encode" (fun () -> encoding_key g) in
          if not (Hashtbl.mem tr.seen enc) then begin
            Hashtbl.replace tr.seen enc ();
            ignore (sp "port_graph.digest" (fun () -> PG.digest g))
          end;
          let task =
            match Json.member "task" o.req with
            | Some (Json.String t) -> Tasks.kind_of_string t
            | _ -> Task.S
          in
          let (Tasks.Impl { scheme; verify; _ }) = Tasks.impl task in
          (* the advice the engine needs; when the daemon found it cached
             it ran no oracle, so it is computed outside any layer span *)
          let advice () =
            if bool_member "cached" res then scheme.Scheme.oracle (fst (PG.canonical g))
            else
              let canon, _ = sp "port_graph.canonical" (fun () -> PG.canonical g) in
              sp "election.oracle" (fun () -> scheme.Scheme.oracle canon)
          in
          match kind with
          | "advise" -> if not (bool_member "cached" res) then ignore (advice ())
          | "elect" when not (bool_member "result_cached" res) ->
              let engine =
                match Json.member "engine" o.req with Some (Json.String e) -> e | _ -> "sync"
              in
              let messages = ref 0 in
              let on_round ~round:_ ~messages:m = messages := m in
              let t0 = ref 0. in
              let engine_span name f =
                sp name (fun () ->
                    t0 := Unix.gettimeofday ();
                    let r = f () in
                    t0 := Unix.gettimeofday () -. !t0;
                    r)
              in
              let run =
                if engine = "async" then
                  let seed = Option.value (int_member "seed" o.req) ~default:0 in
                  engine_span "localsim.async.engine" (fun () -> Scheme.run_async ~seed ~on_round scheme g)
                else
                  let advice = advice () in
                  engine_span ("localsim." ^ engine ^ ".engine") (fun () ->
                      if engine = "sharded" then
                        Scheme.run_sharded_with_advice ~domains:2 ~on_round scheme g ~advice
                      else Scheme.run_with_advice ~on_round scheme g ~advice)
              in
              tr.engines <- (engine, run.Scheme.rounds, !messages, !t0) :: tr.engines;
              ignore (sp "verify.check" (fun () -> verify g run.Scheme.outputs))
          | "verify" when not (bool_member "cached" res) ->
              let outputs = Option.value (Json.member "outputs" o.req) ~default:Json.Null in
              ignore (sp "verify.check" (fun () -> Tasks.verify_json g task outputs))
          | _ -> ()))

(* Re-execute the traced loop's frames in the order they were answered,
   each under a [reexec] root span carrying the frame's request id. *)
let reexec_frames tr =
  List.iter
    (fun f ->
      Span.within tr.spans ~op:f.op_id ~parent:0 "reexec" (fun root ->
          let mi0, _, ma0 = Gc.counters () in
          List.iter (fun (o, reply) -> reexec tr ~op_id:f.op_id ~parent:root o reply) f.answers;
          let mi1, _, ma1 = Gc.counters () in
          tr.gc.(0) <- tr.gc.(0) +. (mi1 -. mi0);
          tr.gc.(1) <- tr.gc.(1) +. (ma1 -. ma0)))
    (List.rev tr.frames)

(* --- the closed loop --- *)

let now = Unix.gettimeofday

type conn = { endpoint : Protocol.endpoint; mutable c : Client.t }

(* One frame round trip, as [shades client] makes it.  After a transport
   error the stream position is unknown, so the connection is renewed. *)
let roundtrip conn req =
  let t0 = now () in
  let reply = Client.request conn.c req in
  let ms = (now () -. t0) *. 1000. in
  (match reply with
  | Error _ ->
      Client.close conn.c;
      conn.c <- Proc.connect conn.endpoint
  | Ok _ -> ());
  (reply, ms)

let add run r = Mutex.protect run.lock (fun () -> run.records <- r :: run.records)

let outputs_of result =
  Option.bind result (fun res ->
      match Json.member "outputs" res with Some (Json.List _ as l) -> Some l | _ -> None)

let batch_replies reply n =
  match Option.bind (result_of reply) (Json.member "replies") with
  | Some (Json.List l) when List.length l = n -> List.map (fun r -> result_of (Ok r)) l
  | _ -> List.init n (fun _ -> None)

(* Run one unit's frames in order.  With a tracer, every frame gets a
   root span (its request id) around a [client.request] span around the
   round trip, and is kept with its replies for the re-execution. *)
let exec_unit ?tracer run conn frames =
  let last_elect = ref None in
  let traced_frame kind ops send =
    match tracer with
    | None -> send ()
    | Some tr ->
        let op_id = Span.fresh_id tr.spans in
        let reply, rtt_ms =
          Span.within tr.spans ~op:op_id ~parent:0 ("op." ^ kind) (fun root ->
              Span.within tr.spans ~op:op_id ~parent:root "client.request" (fun _ -> send ()))
        in
        let replies =
          if kind = "batch" then
            List.map
              (fun r -> Json.Obj [ ("ok", Json.Bool true); ("result", Option.value r ~default:Json.Null) ])
              (batch_replies reply (List.length ops))
          else [ Result.value reply ~default:Json.Null ]
        in
        let f = { op_id; answers = List.combine ops replies; rtt_ms } in
        Mutex.protect tr.frames_lock (fun () -> tr.frames <- f :: tr.frames);
        (reply, rtt_ms)
  in
  List.iter
    (fun frame ->
      match frame with
      | Single step -> (
          let o =
            match step with
            | Send o -> Some o
            | Verify_last { id; corrupt; copy } ->
                Option.map
                  (fun (e, outputs) ->
                    { id; kind = "verify"; req = verify_request ~copy e outputs ~corrupt;
                      expect = Verdict (not corrupt) })
                  !last_elect
          in
          match o with
          | None ->
              (* the elect it depends on failed: so does the verify *)
              add run { kind = "verify"; ms = infinity; ops = 1; failed = 1 }
          | Some o ->
              let reply, ms = traced_frame o.kind [ o ] (fun () -> roundtrip conn o.req) in
              let r = { kind = o.kind; ms; ops = 1; failed = 0 } in
              let result = result_of reply in
              Mutex.protect run.lock (fun () -> check run r o result);
              add run r;
              if o.kind = "elect" then
                last_elect := Option.map (fun l -> (o, l)) (outputs_of result))
      | Batch ops ->
          let req =
            Json.Obj
              [ ("op", Json.String "batch");
                ("requests", Json.List (Array.to_list (Array.map (fun o -> o.req) ops))) ]
          in
          let reply, ms = traced_frame "batch" (Array.to_list ops) (fun () -> roundtrip conn req) in
          let r = { kind = "batch"; ms; ops = Array.length ops; failed = 0 } in
          let results = batch_replies reply (Array.length ops) in
          Mutex.protect run.lock (fun () ->
              List.iter2 (check run r) (Array.to_list ops) results);
          add run r)
    frames

(* [connections] client threads, each taking the next unit from the
   shared cursor until [deadline]; returns the time the last one ended. *)
let closed_loop ?tracer run ~endpoint ~units ~cursor ~deadline =
  let lock = Mutex.create () in
  let take () =
    Mutex.protect lock (fun () ->
        if now () >= deadline || !cursor >= Array.length units then None
        else (
          incr cursor;
          Some units.(!cursor - 1)))
  in
  let client () =
    let conn = { endpoint; c = Proc.connect endpoint } in
    let rec go () =
      match take () with
      | Some u ->
          exec_unit ?tracer run conn u;
          go ()
      | None -> ()
    in
    Fun.protect ~finally:(fun () -> Client.close conn.c) go
  in
  (* one domain per connection: client threads sharing one domain would
     queue on its runtime lock after every reply *)
  List.iter Domain.join (List.init connections (fun _ -> Domain.spawn client));
  now ()

(* Send each op once over [connections] connections (the untimed
   fill); returns the replies' results by position. *)
let send_all ~endpoint (ops : op array) =
  let results = Array.make (Array.length ops) None in
  let units = Array.mapi (fun i o -> (i, o)) ops in
  let cursor = ref 0 and lock = Mutex.create () in
  let client () =
    let conn = { endpoint; c = Proc.connect endpoint } in
    let rec go () =
      match
        Mutex.protect lock (fun () ->
            if !cursor >= Array.length units then None
            else (
              incr cursor;
              Some units.(!cursor - 1)))
      with
      | Some (i, o) ->
          let reply, _ = roundtrip conn o.req in
          results.(i) <- Some reply;
          go ()
      | None -> ()
    in
    Fun.protect ~finally:(fun () -> Client.close conn.c) go
  in
  List.iter Domain.join (List.init connections (fun _ -> Domain.spawn client));
  Array.map Option.get results

(* The hot/spill fill: advise and elect every topology, then verify the
   received outputs honestly and corrupted.  Returns the request pool
   and the number of fill replies that failed their check. *)
let fill ?tracer ~endpoint topos =
  let scratch = new_run () in
  let failures = ref 0 in
  let checked ops replies =
    Array.iteri
      (fun i (o : op) ->
        let r = { kind = o.kind; ms = 0.; ops = 1; failed = 0 } in
        check scratch r o (result_of replies.(i));
        failures := !failures + r.failed;
        Option.iter
          (fun tr ->
            let reply = Result.value replies.(i) ~default:Json.Null in
            ignore (Service.handle tr.svc o.req);
            Cache.put tr.cache (Digest.to_hex (Digest.string (Json.to_string o.req))) reply;
            Option.iter
              (fun g ->
                match Protocol.graph_of_json g with
                | Ok g -> Hashtbl.replace tr.seen (encoding_key g) ()
                | Error _ -> ())
              (Json.member "graph" o.req))
          tracer)
      ops
  in
  (* advise everything before electing anything, so no topology is
     computed twice by racing connections *)
  let ops j kind expect =
    Array.mapi
      (fun i t -> { id = (per_topo * i) + j; kind; req = request kind t.graph t.task; expect = expect i })
      topos
  in
  let advises = ops 0 "advise" (fun _ -> Advised { twin = None }) in
  checked advises (send_all ~endpoint advises);
  let elects = ops 1 "elect" (fun i -> Elected { topo = i }) in
  let replies = send_all ~endpoint elects in
  checked elects replies;
  let verifies j ~corrupt =
    Array.mapi
      (fun i elect ->
        let outputs = Option.value (outputs_of (result_of replies.(i))) ~default:(Json.List []) in
        { id = (per_topo * i) + j; kind = "verify"; req = verify_request elect outputs ~corrupt;
          expect = Verdict (not corrupt) })
      elects
  in
  let honest = verifies 2 ~corrupt:false and corrupted = verifies 3 ~corrupt:true in
  checked honest (send_all ~endpoint honest);
  checked corrupted (send_all ~endpoint corrupted);
  let pool =
    Array.init (Array.length topos * per_topo) (fun p ->
        [| advises; elects; honest; corrupted |].(p mod per_topo).(p / per_topo))
  in
  (pool, !failures)

(* --- one workload run --- *)

let latencies records kind =
  Array.of_list
    (List.filter_map
       (fun r ->
         if kind = "" || r.kind = kind then
           Some (if r.failed > 0 then Stats.failed_latency else r.ms)
         else None)
       records)

let totals run =
  let t = Stats.tally (List.map (fun r -> (r.ops, r.failed)) run.records) in
  (t.Stats.attempted, t.Stats.failed)

let name = function Cold -> "serve-cold" | Hot -> "serve-hot" | Spill -> "serve-spill"

let median_or_zero a = if Array.length a = 0 then 0. else Stats.median a
let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float (List.length l)

let counters_delta before after =
  List.map (fun (n, _) -> (n, Proc.counter after n - Proc.counter before n)) after

let ratio a b = if b = 0 then 0. else float a /. float b

(* Per-layer metrics from the traced run's spans and the daemon's
   counter deltas over its loop. *)
let layer_metrics tr ~delta ~ops ~advice_bits =
  let c name = Option.value (List.assoc_opt name delta) ~default:0 in
  let selfs = Stats.self_times (Span.spans tr.spans) in
  let self name scale =
    median_or_zero
      (Array.of_list
         (List.filter_map
            (fun ((s : Span.span), d) -> if s.name = name then Some (d *. scale) else None)
            selfs))
  in
  let durations name =
    List.filter_map
      (fun (s : Span.span) -> if s.name = name then Some (s.op, s.stop -. s.start) else None)
      (Span.spans tr.spans)
  in
  let handles = Hashtbl.create 256 in
  List.iter
    (fun (s : Span.span) ->
      if String.starts_with ~prefix:"service.handle." s.name then
        Hashtbl.add handles s.op (s.stop -. s.start))
    (Span.spans tr.spans);
  let requests = durations "client.request" in
  let transport =
    List.filter_map
      (fun (op, d) ->
        match Hashtbl.find_all handles op with [ h ] -> Some ((d -. h) *. 1000.) | _ -> None)
      requests
  in
  let batch_speedup =
    List.filter_map
      (fun ((s : Span.span), _) ->
        if s.name = "op.batch" then
          match List.assoc_opt s.op requests with
          | Some d when d > 0. ->
              Some (List.fold_left ( +. ) 0. (Hashtbl.find_all handles s.op) /. d)
          | _ -> None
        else None)
      selfs
  in
  let finds tier scale =
    median_or_zero
      (Array.of_list (List.filter_map (fun (t, d) -> if t = tier then Some (d *. scale) else None) tr.finds))
  in
  let lookups = [ "advice_cache"; "result_cache" ] in
  let sum suffix = List.fold_left (fun a n -> a + c (n ^ suffix)) 0 lookups in
  let hits = sum "_hits" and disk = sum "_disk_hits" and misses = sum "_misses" in
  let all = hits + disk + misses in
  let engine e =
    let runs = List.filter (fun (n, _, _, _) -> n = e) tr.engines in
    let rounds = mean (List.map (fun (_, r, _, _) -> float r) runs) in
    let msgs = List.fold_left (fun a (_, _, m, _) -> a +. float m) 0. runs in
    let secs = List.fold_left (fun a (_, _, _, s) -> a +. s) 0. runs in
    [ ("localsim." ^ e ^ ".engine_ms", self ("localsim." ^ e ^ ".engine") 1000., "ms");
      ("localsim." ^ e ^ ".rounds", rounds, "rounds");
      ("localsim." ^ e ^ ".messages_per_s", (if secs > 0. then msgs /. secs else 0.), "msgs/s") ]
  in
  (* The tracing overhead: per frame, the root span is the round trip a
     traced run sees, and the round trip inside it is what the untraced
     run times.  Both medians are taken over the same frames under the
     same load, and each root encloses its round trip, so the difference
     is the cost of the spans and never negative. *)
  let roots =
    List.filter_map
      (fun (s : Span.span) ->
        if s.parent = 0 && String.starts_with ~prefix:"op." s.name then
          Some ((s.stop -. s.start) *. 1000.)
        else None)
      (Span.spans tr.spans)
  in
  let traced_p50 = median_or_zero (Array.of_list roots) in
  let untraced_p50 = median_or_zero (Array.of_list (List.map (fun f -> f.rtt_ms) tr.frames)) in
  let per_op x = if ops = 0 then 0. else x /. float ops in
  [ ("protocol.frame_bytes", mean (List.map float tr.frame_bytes), "bytes");
    ("protocol.codec_us", self "protocol.codec" 1e6, "us");
    ("daemon.transport_ms", median_or_zero (Array.of_list transport), "ms");
    ("spec.parse_ms", self "spec.parse" 1000., "ms");
    ("port_graph.encode_us", self "port_graph.encode" 1e6, "us");
    ("port_graph.digest_ms", self "port_graph.digest" 1000., "ms");
    ("port_graph.canonicalize_per_miss", ratio (c "canonicalize") (c "advise_computes"), "count");
    ("cache.mem_hit_ratio", ratio hits all, "ratio");
    ("cache.disk_hit_ratio", ratio disk all, "ratio");
    ("cache.miss_ratio", ratio misses all, "ratio");
    ("cache.mem_find_us", finds "mem" 1e6, "us");
    ("cache.disk_read_ms", finds "disk" 1000., "ms");
    ("cache.disk_write_ms", self "cache.put" 1000., "ms") ]
  @ List.map
      (fun k -> ("service.handle_ms." ^ k, self ("service.handle." ^ k) 1000., "ms"))
      [ "advise"; "elect"; "verify"; "verify-trace" ]
  @ [ ("service.computes_avoided_ratio", ratio (c "computes_avoided") ops, "ratio");
      ("election.oracle_ms", self "election.oracle" 1000., "ms");
      ("election.advice_bits", advice_bits, "bits") ]
  @ engine "sync" @ engine "sharded" @ engine "async"
  @ [ ("verify.check_ms", self "verify.check" 1000., "ms");
      ("trace.replay_ms", self "trace.replay" 1000., "ms");
      ("pool.batch_speedup", median_or_zero (Array.of_list batch_speedup), "ratio");
      ("gc.minor_words_per_op", per_op tr.gc.(0), "words/op");
      ("gc.major_words_per_op", per_op tr.gc.(1), "words/op");
      ("tracing.overhead_ms", traced_p50 -. untraced_p50, "ms") ]

(* Each set-up boots a daemon; the cold one fills nothing, so it is
   cheap enough to repeat more often. *)
let setup_repeats = function Cold -> 5 | Hot | Spill -> 3

let execute workload ~seed ~seconds ~traced =
  let base = Printf.sprintf ".perfbench/%s-%d" (name workload) (Unix.getpid ()) in
  let tracer = if traced then Some (new_tracer ~dir:(base ^ "/bench") workload) else None in
  let setup () =
    let t0 = now () in
    let catalog = Catalog.load () in
    let d = Proc.start ~dir:(base ^ "/daemon") ~capacity:(capacity workload) in
    let topos, units, digest, failures =
      match workload with
      | Cold ->
          let topos, units, digest = cold ~seed ~catalog in
          (topos, units, digest, 0)
      | Hot | Spill ->
          let r = repeats workload ~seed ~catalog in
          let pool, failures = fill ?tracer ~endpoint:d.Proc.endpoint r.topos in
          let units =
            Array.map
              (fun d ->
                if Array.length d = 1 then [ Single (Send pool.(d.(0))) ]
                else [ Batch (Array.map (fun i -> pool.(i)) d) ])
              r.draws
          in
          (r.topos, units, r.digest, failures)
    in
    (now () -. t0, d, topos, units, digest, failures)
  in
  (* Set-up is measured [setup_repeats] times, each on a fresh daemon
     and cache directory; the last daemon serves the timed phase.  The
     traced run sets up once. *)
  let rec repeat k acc =
    let ((dt, d, _, _, _, _) as s) = setup () in
    if k <= 1 then (List.rev (dt :: acc), s)
    else (
      Proc.stop d;
      repeat (k - 1) (dt :: acc))
  in
  let setups, (_, d, topos, units, digest, setup_failures) =
    repeat (if traced then 1 else setup_repeats workload) []
  in
  let endpoint = d.Proc.endpoint in
  let cursor = ref 0 in
  let t0 = now () in
  let run = new_run () in
  let outcome =
    if not traced then begin
      let t1 = closed_loop run ~endpoint ~units ~cursor ~deadline:(t0 +. seconds) in
      let rss = Proc.vm_hwm_mb (string_of_int d.Proc.pid) in
      Proc.stop d;
      post_check run topos;
      let ops, failed = totals run in
      let wall = t1 -. t0 in
      let all = latencies run.records "" in
      let tail = Stats.tail all in
      let p50 kind = median_or_zero (latencies run.records kind) in
      {
        Report.attempted = ops;
        failed;
        setup_failures;
        metrics =
          [ ("setup_s", Stats.median (Array.of_list setups), "s");
            ("ops_per_s", float (ops - failed) /. wall, "ops/s");
            ("req_p50_ms", Stats.median all, "ms");
            ("req_tail_ms", tail.Stats.value, "ms");
            ("advise_p50_ms", p50 "advise", "ms");
            ("elect_p50_ms", p50 "elect", "ms");
            ("verify_p50_ms", p50 "verify", "ms");
            ("batch_p50_ms", p50 "batch", "ms");
            ("rss_peak_mb", rss, "MiB") ];
        notes =
          [ Printf.sprintf "stream_digest=%s seed=%d" digest seed;
            Printf.sprintf "req_tail_ms is %s over %d frames (%d beyond)" tail.Stats.label
              tail.Stats.samples tail.Stats.beyond;
            Printf.sprintf
              "frames=%d batch_frames=%d units=%d ops=%d twin_checks=%d failed=%d fail_ratio=%g wall_s=%.3f"
              (List.length run.records)
              (List.length (List.filter (fun r -> r.kind = "batch") run.records))
              !cursor ops (List.length run.twins) failed
              (Stats.fail_ratio { Stats.attempted = ops; failed }) wall;
            Printf.sprintf "setup_s samples: %s"
              (String.concat " " (List.map (Printf.sprintf "%.4f") setups)) ];
      }
    end
    else begin
      let tr = Option.get tracer in
      (* The loop records only the root and client.request spans, so the
         daemon carries the untraced run's load.  It runs a quarter of
         the time: re-executing a cold frame in-process afterwards costs
         a few times its daemon time. *)
      let before = Proc.stats d in
      ignore (closed_loop ~tracer:tr run ~endpoint ~units ~cursor ~deadline:(t0 +. (seconds /. 4.)));
      let after = Proc.stats d in
      Proc.stop d;
      reexec_frames tr;
      post_check run topos;
      let ops, failed = totals run in
      {
        Report.attempted = ops;
        failed;
        setup_failures;
        metrics =
          layer_metrics tr ~delta:(counters_delta before after) ~ops
            ~advice_bits:(mean (List.map float run.advice_bits))
          @ [ ("families.build_ms", 0., "ms"); ("pool.busy_share", 0., "ratio");
              ("store.write_ms", 0., "ms") ];
        notes =
          [ Printf.sprintf "stream_digest=%s seed=%d" digest seed;
            Printf.sprintf "traced ops=%d frames=%d spans=%d failed=%d" ops
              (List.length tr.frames) (List.length (Span.spans tr.spans)) failed ];
      }
    end
  in
  Proc.rm_rf base;
  outcome

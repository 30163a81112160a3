(* sweep-grid: the paper-family grid run in-process by the sweep runtime
   on a Pool of two domains, records written through Store and checked
   against the committed BENCH_sweep/ baseline.  No daemon layer runs. *)

module Json = Shades_json.Json
module Sweep = Shades_runtime.Sweep
module Store = Shades_runtime.Store
module Metrics = Shades_runtime.Metrics
module Scheme = Shades_election.Scheme
module Verify = Shades_election.Verify
module Bitstring = Shades_bits.Bitstring
module Gclass = Shades_families.Gclass
module Uclass = Shades_families.Uclass
module Jclass = Shades_families.Jclass

let domains = 2
let baseline_dir = "BENCH_sweep"
let now = Unix.gettimeofday

(* The BENCH_sweep grid (G: delta 4-6, k 1-2, i 2-3; U: delta 4-6,
   k 1-2, sigma 1) plus J points (mu 3, k 4, z_eff 1-3).  The seed only
   permutes the job list: the grid, and so every record, is the same
   for every seed, while the LPT tie order and the stream digest are
   not. *)
let jobs ~seed =
  let open Sweep in
  let g =
    gclass_jobs (cross [ range "delta" ~lo:4 ~hi:6; range "k" ~lo:1 ~hi:2; range "i" ~lo:2 ~hi:3 ])
  and u = uclass_jobs (cross [ range "delta" ~lo:4 ~hi:6; range "k" ~lo:1 ~hi:2; axis "sigma" [ 1 ] ])
  and j =
    jclass_jobs ~metrics:(Metrics.create ())
      (cross [ axis "mu" [ 3 ]; axis "k" [ 4 ]; range "z_eff" ~lo:1 ~hi:3 ])
  in
  let a = Array.of_list (g @ u @ j) in
  Stats.shuffle (Random.State.make [| seed; 3 |]) a;
  let jobs = Array.to_list a in
  (jobs, Digest.to_hex (Digest.string (String.concat "\n" (List.map Sweep.label_of_job jobs))))

let params_key (r : Store.record) = Json.to_string (Json.Obj r.Store.params)

let load_baseline () =
  match Store.Sharded.load ~dir:baseline_dir with
  | Ok store ->
      let h = Hashtbl.create 32 in
      List.iter (fun r -> Hashtbl.replace h (params_key r) r) store.Store.records;
      h
  | Error e -> failwith (baseline_dir ^ ": " ^ e)

(* Every record is verified; G and U records equal the baseline on
   rounds, messages and advice bits.  Returns the failed count. *)
let check baseline records =
  List.fold_left
    (fun failed (r : Store.record) ->
      let verified = Store.metric r "verified" = Some (Metrics.Counter 1) in
      let matches =
        match List.assoc_opt "family" r.Store.params with
        | Some (Json.String ("g" | "u")) -> (
            match Hashtbl.find_opt baseline (params_key r) with
            | Some b ->
                b.Store.rounds = r.Store.rounds
                && b.Store.messages = r.Store.messages
                && b.Store.advice_bits = r.Store.advice_bits
            | None -> false)
        | _ -> true
      in
      if verified && matches then failed else failed + 1)
    0 records

let timing_ms (r : Store.record) name =
  match Store.metric r name with
  | Some (Metrics.Timing { total_ns; _ }) -> float total_ns /. 1e6
  | _ -> 0.

type within = { sp : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { sp = (fun _ f -> f ()) }

(* One pass: the grid on the Pool, then the store write, each inside
   [sp].  Returns the records, the store write's and the whole pass's
   seconds. *)
let pass { sp } ~dir jobs =
  let t0 = now () in
  let records = sp "pool.run" (fun () -> Sweep.run ~domains jobs) in
  let t1 = now () in
  sp "store.write" (fun () ->
      ignore (Store.Sharded.save ~dir (Store.make ~label:"perfbench sweep-grid" records)));
  let t2 = now () in
  (records, t2 -. t1, t2 -. t0)

(* The traced re-execution of one job: one span per layer call. *)
let reexec { sp } (job : Sweep.job) =
  let p name = List.assoc name job.Sweep.params in
  let elect scheme verify g =
    let advice = sp "election.oracle" (fun () -> scheme.Scheme.oracle g) in
    let t0 = ref 0. and rounds = ref 0 and messages = ref 0 in
    let on_round ~round ~messages:m =
      rounds := round;
      messages := m
    in
    let run =
      sp "localsim.sync.engine" (fun () ->
          t0 := now ();
          let r = Scheme.run_with_advice ~on_round scheme g ~advice in
          t0 := now () -. !t0;
          r)
    in
    ignore (sp "verify.check" (fun () -> verify g run.Scheme.outputs));
    (Bitstring.length advice, run.Scheme.rounds, !messages, !t0)
  in
  match job.Sweep.family with
  | "g" ->
      let t = sp "families.build" (fun () -> Gclass.build { Gclass.delta = p "delta"; k = p "k" } ~i:(p "i")) in
      elect Shades_election.Select_by_view.scheme Verify.selection t.Gclass.graph
  | "u" ->
      let params = { Uclass.delta = p "delta"; k = p "k" } in
      let t =
        sp "families.build" (fun () ->
            Uclass.build params ~sigma:(Uclass.uniform_sigma params (p "sigma")))
      in
      elect Uclass.pe_scheme Verify.port_election t.Uclass.graph
  | _ ->
      let params = { Jclass.mu = p "mu"; k = p "k"; z_eff = p "z_eff" } in
      let t = sp "families.build" (fun () -> Jclass.build params ~y:(Jclass.y_zero params)) in
      elect (Jclass.cppe_scheme t) Verify.complete_port_path_election t.Jclass.graph

(* Set-up here is only the baseline load and job construction, about
   0.4 ms but from 0.3 ms to over 1 ms within one run, so it is repeated
   far more often than the daemon set-ups to get a steady median. *)
let setup_repeats = 201

let execute ~seed ~seconds ~traced =
  let base = Printf.sprintf ".perfbench/sweep-grid-%d" (Unix.getpid ()) in
  let dir = Filename.concat base "store" in
  let setup () =
    let t0 = now () in
    let baseline = load_baseline () in
    let jobs, digest = jobs ~seed in
    (now () -. t0, baseline, jobs, digest)
  in
  let setups = List.init setup_repeats (fun _ -> setup ()) in
  let _, baseline, jobs, digest = List.hd (List.rev setups) in
  let setups = List.map (fun (dt, _, _, _) -> dt) setups in
  Proc.mkdir_p base;
  let records = ref [] and passes = ref [] and failed = ref 0 in
  (* [around] runs each pass: directly, or inside a root span *)
  let run_passes ?(around = fun f -> f untraced) ~until () =
    let rec go () =
      let rs, store_s, wall = around (fun sp -> pass sp ~dir jobs) in
      failed := !failed + check baseline rs;
      records := rs @ !records;
      passes := (wall, rs, store_s) :: !passes;
      if now () < until then go ()
    in
    go ()
  in
  let t0 = now () in
  let report =
    if not traced then begin
      run_passes ~until:(t0 +. seconds) ();
      let wall = now () -. t0 in
      let points = List.length !records in
      (* a reproducer waits for whole grids: a pass is the request, the
         Pool run inside it the batch *)
      let over_passes f = Stats.median (Array.of_list (List.map f !passes)) in
      let pass_walls = Array.of_list (List.map (fun (w, _, _) -> w *. 1000.) !passes) in
      let tail = Stats.tail pass_walls in
      (* a per-point time per pass: each point's median over passes,
         summed over the grid, so one pass that collided with the other
         domain's collections does not move it *)
      let per_point_sum ms_of =
        let per_point = Hashtbl.create 32 in
        List.iter (fun r -> Hashtbl.add per_point (params_key r) (ms_of r)) !records;
        List.fold_left
          (fun acc key -> acc +. Stats.median (Array.of_list (Hashtbl.find_all per_point key)))
          0.
          (List.sort_uniq compare (List.map params_key !records))
      in
      {
        Report.attempted = points;
        failed = !failed;
        setup_failures = 0;
        metrics =
          [ ("setup_s", Stats.median (Array.of_list setups), "s");
            ("ops_per_s", float (points - !failed) /. wall, "ops/s");
            ("req_p50_ms", Stats.median pass_walls, "ms");
            ("req_tail_ms", tail.Stats.value, "ms");
            ("advise_p50_ms", per_point_sum (fun r -> timing_ms r "build"), "ms");
            ("elect_p50_ms", per_point_sum (fun r -> timing_ms r "elect"), "ms");
            (* the verify phase alone is ~1% of a pass and swung by a
               quarter between runs on 2 cores, so the sweep's verify
               figure is the time until each point is verified: its
               whole job (build, oracle, engine, referee) *)
            ( "verify_p50_ms",
              per_point_sum (fun r -> float r.Store.wall_ns /. 1e6),
              "ms" );
            ("batch_p50_ms", over_passes (fun (w, _, store_s) -> (w -. store_s) *. 1000.), "ms");
            ("rss_peak_mb", Proc.vm_hwm_mb "self", "MiB") ];
        notes =
          [ Printf.sprintf "stream_digest=%s seed=%d" digest seed;
            Printf.sprintf "sweep_points_per_s=%.6f over %d passes of %d points"
              (float (points - !failed) /. wall) (List.length !passes) (List.length jobs);
            Printf.sprintf "req_tail_ms is %s over %d passes (%d beyond)" tail.Stats.label
              tail.Stats.samples tail.Stats.beyond;
            Printf.sprintf "points=%d failed=%d fail_ratio=%g wall_s=%.3f" points !failed
              (Stats.fail_ratio { Stats.attempted = points; failed = !failed }) wall;
            (let s = Stats.sorted (Array.of_list setups) in
             Printf.sprintf "setup_s over %d set-ups: min %.6f median %.6f max %.6f"
               (Array.length s) s.(0) (Stats.median s) s.(Array.length s - 1)) ];
      }
    end
    else begin
      (* Passes for half the time, each inside a root span with one child
         span around the Pool run and one around the store write; then
         every job once more in-process, one span per layer call. *)
      let spans = Span.create () in
      let around f =
        let op = Span.fresh_id spans in
        Span.within spans ~op ~parent:0 "sweep.pass" (fun root ->
            f { sp = (fun name g -> Span.within spans ~op ~parent:root name (fun _ -> g ())) })
      in
      run_passes ~around ~until:(t0 +. (seconds /. 2.)) ();
      let bits = ref [] and engines = ref [] in
      let gc = [| 0.; 0. |] in
      List.iter
        (fun job ->
          let op = Span.fresh_id spans in
          Span.within spans ~op ~parent:0 "job" (fun root ->
              let mi0, _, ma0 = Gc.counters () in
              let b, rounds, messages, secs =
                reexec { sp = (fun name f -> Span.within spans ~op ~parent:root name (fun _ -> f ())) } job
              in
              let mi1, _, ma1 = Gc.counters () in
              gc.(0) <- gc.(0) +. (mi1 -. mi0);
              gc.(1) <- gc.(1) +. (ma1 -. ma0);
              bits := float b :: !bits;
              engines := (rounds, messages, secs) :: !engines))
        jobs;
      let busy =
        List.map
          (fun (wall, rs, store_s) ->
            let job_wall = List.fold_left (fun a r -> a +. (float r.Store.wall_ns /. 1e9)) 0. rs in
            job_wall /. (float domains *. (wall -. store_s)))
          !passes
      in
      (* per pass, the root span is what a traced run sees and the pass
         wall inside it what the untraced run times: same passes, same
         load, and each root encloses its pass *)
      let roots =
        List.filter_map
          (fun (s : Span.span) -> if s.name = "sweep.pass" then Some ((s.stop -. s.start) *. 1000.) else None)
          (Span.spans spans)
      in
      let pass_ms = List.map (fun (w, _, _) -> w *. 1000.) !passes in
      let selfs = Stats.self_times (Span.spans spans) in
      let self name scale =
        let a =
          Array.of_list
            (List.filter_map
               (fun ((s : Span.span), d) -> if s.name = name then Some (d *. scale) else None)
               selfs)
        in
        if Array.length a = 0 then 0. else Stats.median a
      in
      let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float (List.length l) in
      let msgs = List.fold_left (fun a (_, m, _) -> a +. float m) 0. !engines in
      let secs = List.fold_left (fun a (_, _, s) -> a +. s) 0. !engines in
      let per_job x = x /. float (List.length jobs) in
      let zero names = List.map (fun (n, u) -> (n, 0., u)) names in
      {
        Report.attempted = List.length !records;
        failed = !failed;
        setup_failures = 0;
        metrics =
          zero
            [ ("protocol.frame_bytes", "bytes"); ("protocol.codec_us", "us");
              ("daemon.transport_ms", "ms"); ("spec.parse_ms", "ms");
              ("port_graph.encode_us", "us"); ("port_graph.digest_ms", "ms");
              ("port_graph.canonicalize_per_miss", "count"); ("cache.mem_hit_ratio", "ratio");
              ("cache.disk_hit_ratio", "ratio"); ("cache.miss_ratio", "ratio");
              ("cache.mem_find_us", "us"); ("cache.disk_read_ms", "ms");
              ("cache.disk_write_ms", "ms"); ("service.handle_ms.advise", "ms");
              ("service.handle_ms.elect", "ms"); ("service.handle_ms.verify", "ms");
              ("service.handle_ms.verify-trace", "ms"); ("service.computes_avoided_ratio", "ratio") ]
          @ [ ("election.oracle_ms", self "election.oracle" 1000., "ms");
              ("localsim.sync.engine_ms", self "localsim.sync.engine" 1000., "ms");
              ("localsim.sync.rounds", mean (List.map (fun (r, _, _) -> float r) !engines), "rounds");
              ("localsim.sync.messages_per_s", (if secs > 0. then msgs /. secs else 0.), "msgs/s") ]
          @ zero
              [ ("localsim.sharded.engine_ms", "ms"); ("localsim.sharded.rounds", "rounds");
                ("localsim.sharded.messages_per_s", "msgs/s"); ("localsim.async.engine_ms", "ms");
                ("localsim.async.rounds", "rounds"); ("localsim.async.messages_per_s", "msgs/s") ]
          @ [ ("verify.check_ms", self "verify.check" 1000., "ms");
              ("trace.replay_ms", 0., "ms");
              ("pool.batch_speedup", 0., "ratio");
              ("gc.minor_words_per_op", per_job gc.(0), "words/op");
              ("gc.major_words_per_op", per_job gc.(1), "words/op");
              ( "tracing.overhead_ms",
                Stats.median (Array.of_list roots) -. Stats.median (Array.of_list pass_ms),
                "ms" );
              ("election.advice_bits", mean !bits, "bits");
              ("families.build_ms", self "families.build" 1000., "ms");
              ("pool.busy_share", mean busy, "ratio");
              ("store.write_ms", self "store.write" 1000., "ms") ];
        notes =
          [ Printf.sprintf "stream_digest=%s seed=%d" digest seed;
            Printf.sprintf "traced passes=%d jobs re-executed=%d failed=%d" (List.length !passes)
              (List.length jobs) !failed ];
      }
    end
  in
  Proc.rm_rf base;
  report

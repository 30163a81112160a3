(* Shared statistics for every workload: nearest-rank quantiles, the
   tail-percentile rule, attempted/failed tallies, and self time from
   spans.  A failed op is kept in the latency samples as [infinity]:
   it counts as missing any latency limit, so failures push medians and
   tails up instead of silently vanishing from them. *)

let failed_latency = infinity

(* Seeded in-place Fisher-Yates permutation, shared by the workload
   generators so that one seed always yields the same draws. *)
let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A seeded draw of categories in blocks: each block of [sum counts]
   draws holds exactly [counts.(k)] draws of category [k], in shuffled
   order.  Any stretch of the stream then has nearly the stated mix, so
   a run's mix, and with it every figure that averages over the mix,
   varies little from seed to seed. *)
let stratified st counts =
  let block = Array.concat (Array.to_list (Array.mapi (fun k c -> Array.make c k) counts)) in
  let next = ref (Array.length block) in
  fun () ->
    if !next = Array.length block then begin
      shuffle st block;
      next := 0
    end;
    incr next;
    block.(!next - 1)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of the [num/den] quantile of [n] samples, in
   integer arithmetic so that e.g. 90/100 of 100 is exactly rank 90. *)
let rank ~num ~den n = max 1 (((num * n) + den - 1) / den)

let quantile_sorted s ~num ~den =
  let n = Array.length s in
  if n = 0 then nan else s.(min n (rank ~num ~den n) - 1)

let median samples = quantile_sorted (sorted samples) ~num:1 ~den:2

type tail = {
  label : string;  (** e.g. ["p99"] *)
  value : float;
  samples : int;
  beyond : int;  (** samples ranked strictly above the chosen one *)
}

(* p50, p90, p99, p99.9, ...: each candidate adds a nine. *)
let candidates =
  [ ("p50", 1, 2); ("p90", 9, 10); ("p99", 99, 100); ("p99.9", 999, 1000);
    ("p99.99", 9999, 10000) ]

(* Samples a tail percentile must have ranked beyond it. *)
let min_beyond = 10

(* The highest candidate percentile that still has at least
   [min_beyond] samples ranked beyond it.  With fewer than
   [2 * min_beyond] samples no candidate qualifies and the median is
   reported, flagged by [beyond < min_beyond]. *)
let tail samples =
  let s = sorted samples in
  let n = Array.length s in
  let pick (label, num, den) =
    let r = min n (rank ~num ~den n) in
    { label; value = (if n = 0 then nan else s.(r - 1)); samples = n;
      beyond = n - r }
  in
  List.fold_left
    (fun best c ->
      let t = pick c in
      if t.beyond >= min_beyond then t else best)
    (pick (List.hd candidates))
    candidates

(* Attempted and failed op counts over a run's frames, each given as
   (ops attempted, ops failed). *)
type tally = { attempted : int; failed : int }

let tally counts =
  List.fold_left
    (fun t (ops, failed) ->
      { attempted = t.attempted + ops; failed = t.failed + min ops failed })
    { attempted = 0; failed = 0 }
    counts

let fail_ratio t =
  if t.attempted = 0 then 0. else float t.failed /. float t.attempted

(* Self time of every span: its duration minus the part of its interval
   that its children cover (children are clipped to the parent and
   overlapping children are merged, so concurrent children are not
   subtracted twice). *)
let self_times (spans : Span.span list) =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.span) ->
      if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun (s : Span.span) ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun (c : Span.span) ->
               let a = Float.max c.start s.start
               and b = Float.min c.stop s.stop in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      (s, s.stop -. s.start -. covered))
    spans

module Json = Shades_json.Json

let schema_version = Shades_versions.Versions.store_schema

type record = {
  params : (string * Json.t) list;
  rounds : int;
  messages : int;
  advice_bits : int;
  wall_ns : int;
  metrics : (string * Metrics.value) list;
}

type t = { version : int; label : string; records : record list }

let make ?(label = "sweep") records = { version = schema_version; label; records }

let metric r name = List.assoc_opt name r.metrics

(* --- encoding --- *)

let json_of_metric = function
  | Metrics.Counter n -> Json.Obj [ ("kind", String "counter"); ("value", Int n) ]
  | Metrics.Gauge g -> Json.Obj [ ("kind", String "gauge"); ("value", Float g) ]
  | Metrics.Histogram h ->
      Json.Obj
        [
          ("kind", String "histogram");
          ("count", Int h.Metrics.count);
          ("sum", Float h.Metrics.sum);
          ("min", Float h.Metrics.min);
          ("max", Float h.Metrics.max);
          ("p50", Float h.Metrics.p50);
          ("p90", Float h.Metrics.p90);
          ("p99", Float h.Metrics.p99);
        ]
  | Metrics.Timing { count; total_ns } ->
      Json.Obj
        [
          ("kind", String "timing"); ("count", Int count);
          ("total_ns", Int total_ns);
        ]

let json_of_record r =
  Json.Obj
    [
      ("params", Json.Obj r.params);
      ("rounds", Int r.rounds);
      ("messages", Int r.messages);
      ("advice_bits", Int r.advice_bits);
      ("wall_ns", Int r.wall_ns);
      ("metrics", Json.Obj (List.map (fun (n, v) -> (n, json_of_metric v)) r.metrics));
    ]

let encode t =
  (* one record per line so diffs of the raw file stay readable *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":%d,\"label\":%s,\"records\":[" t.version
       (Json.to_string (String t.label)));
  List.iteri
    (fun i r ->
      Buffer.add_string buf (if i = 0 then "\n" else ",\n");
      Buffer.add_string buf (Json.to_string (json_of_record r)))
    t.records;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* --- decoding --- *)

let ( let* ) = Result.bind

let need what = function
  | Some v -> Ok v
  | None -> Error ("store: missing " ^ what)

let as_int what = function
  | Json.Int i -> Ok i
  | _ -> Error ("store: " ^ what ^ " is not an integer")

let as_float what = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error ("store: " ^ what ^ " is not a number")

let as_string what = function
  | Json.String s -> Ok s
  | _ -> Error ("store: " ^ what ^ " is not a string")

let int_member what j =
  let* v = need what (Json.member what j) in
  as_int what v

let float_member what j =
  let* v = need what (Json.member what j) in
  as_float what v

let metric_of_json name j =
  let* kind = need "metric kind" (Json.member "kind" j) in
  let* kind = as_string "metric kind" kind in
  match kind with
  | "counter" ->
      let* v = int_member "value" j in
      Ok (Metrics.Counter v)
  | "gauge" ->
      let* v = float_member "value" j in
      Ok (Metrics.Gauge v)
  | "histogram" ->
      let* count = int_member "count" j in
      let* sum = float_member "sum" j in
      let* min = float_member "min" j in
      let* max = float_member "max" j in
      let* p50 = float_member "p50" j in
      let* p90 = float_member "p90" j in
      let* p99 = float_member "p99" j in
      Ok (Metrics.Histogram { Metrics.count; sum; min; max; p50; p90; p99 })
  | "timing" ->
      let* count = int_member "count" j in
      let* total_ns = int_member "total_ns" j in
      Ok (Metrics.Timing { count; total_ns })
  | k -> Error ("store: unknown metric kind " ^ name ^ ":" ^ k)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let record_of_json j =
  let* params = need "params" (Json.member "params" j) in
  let* params =
    match params with
    | Json.Obj members -> Ok members
    | _ -> Error "store: params is not an object"
  in
  let* rounds = int_member "rounds" j in
  let* messages = int_member "messages" j in
  let* advice_bits = int_member "advice_bits" j in
  let* wall_ns = int_member "wall_ns" j in
  let* metrics = need "metrics" (Json.member "metrics" j) in
  let* metrics =
    match metrics with
    | Json.Obj members ->
        map_result
          (fun (name, mj) ->
            let* v = metric_of_json name mj in
            Ok (name, v))
          members
    | _ -> Error "store: metrics is not an object"
  in
  Ok { params; rounds; messages; advice_bits; wall_ns; metrics }

let decode text =
  let* j = Json.of_string text in
  let* version = int_member "schema" j in
  if version <> schema_version then
    Error
      (Printf.sprintf
         "store: unsupported schema version %d (this build reads version %d)"
         version schema_version)
  else
    let* label = need "label" (Json.member "label" j) in
    let* label = as_string "label" label in
    let* records = need "records" (Json.member "records" j) in
    let* records =
      match records with
      | Json.List items -> map_result record_of_json items
      | _ -> Error "store: records is not a list"
    in
    Ok { version; label; records }

let write_file path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error msg -> Error ("store: " ^ msg)

(* --- comparison --- *)

let strip_timing t =
  {
    t with
    records =
      List.map
        (fun r ->
          {
            r with
            wall_ns = 0;
            metrics =
              List.filter (fun (_, v) -> not (Metrics.is_timing v)) r.metrics;
          })
        t.records;
  }

let params_key params =
  Json.to_string (Json.Obj params)

let pp_params params =
  String.concat " "
    (List.map
       (fun (name, v) ->
         name ^ "="
         ^ match v with Json.String s -> s | v -> Json.to_string v)
       params)

type change =
  | Added of record
  | Removed of record
  | Changed of record * string list

let is_changed = function Changed _ -> true | _ -> false

let pp_change = function
  | Added r -> Printf.sprintf "added   %s" (pp_params r.params)
  | Removed r -> Printf.sprintf "removed %s" (pp_params r.params)
  | Changed (r, fields) ->
      Printf.sprintf "changed %s: %s" (pp_params r.params)
        (String.concat "; " fields)

let diff_changes ~baseline ~current =
  let baseline = strip_timing baseline and current = strip_timing current in
  let index store =
    List.map (fun r -> (params_key r.params, r)) store.records
  in
  let base_idx = index baseline and cur_idx = index current in
  let changes =
    List.filter_map
      (fun (key, cur) ->
        match List.assoc_opt key base_idx with
        | None -> Some (Added cur)
        | Some base ->
            let fields =
              List.filter_map
                (fun (name, was, is) ->
                  if was = is then None
                  else Some (Printf.sprintf "%s %d -> %d" name was is))
                [
                  ("rounds", base.rounds, cur.rounds);
                  ("messages", base.messages, cur.messages);
                  ("advice_bits", base.advice_bits, cur.advice_bits);
                ]
            in
            let fields =
              if base.metrics = cur.metrics then fields
              else fields @ [ "metrics changed" ]
            in
            if fields = [] then None else Some (Changed (cur, fields)))
      cur_idx
  in
  let removed =
    List.filter_map
      (fun (key, base) ->
        if List.mem_assoc key cur_idx then None else Some (Removed base))
      base_idx
  in
  changes @ removed

let diff ~baseline ~current =
  List.map pp_change (diff_changes ~baseline ~current)

(* --- sharded layout --- *)

module Sharded = struct
  type shard = {
    file : string;
    slice : (string * Json.t) list;
    digest : string;
    records : int;
  }

  type manifest = { version : int; label : string; shards : shard list }

  let manifest_file = "manifest.json"

  let default_slice r =
    List.filter (fun (name, _) -> name = "family" || name = "delta") r.params

  let slice_label slice = if slice = [] then "all" else pp_params slice

  (* digests are taken over the canonical (timing-stripped) encoding, so
     a shard's digest is independent of the domain count and of the
     wall-clock values stored in the file *)
  let digest_of_store st = Digest.to_hex (Digest.string (encode (strip_timing st)))

  let shard_file_name =
    let sanitize s =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' | '=' -> c
          | _ -> ',')
        s
    in
    fun slice -> "shard-" ^ sanitize (slice_label slice) ^ ".json"

  (* partition records by slice, shards in first-appearance order,
     records in store order within each shard *)
  let partition slice_of (t : t) =
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun r ->
        let slice = slice_of r in
        let key = params_key slice in
        match Hashtbl.find_opt tbl key with
        | None ->
            Hashtbl.add tbl key (slice, ref [ r ]);
            order := key :: !order
        | Some (_, rs) -> rs := r :: !rs)
      t.records;
    List.rev_map
      (fun key ->
        let slice, rs = Hashtbl.find tbl key in
        (slice, List.rev !rs))
      !order

  let shard ?(slice = default_slice) t =
    List.map
      (fun (slice, records) ->
        let st = { version = schema_version; label = slice_label slice; records } in
        ( {
            file = shard_file_name slice;
            slice;
            digest = digest_of_store st;
            records = List.length records;
          },
          st ))
      (partition slice t)

  (* manifest codec, same one-entry-per-line discipline as the store *)

  let json_of_shard s =
    Json.Obj
      [
        ("file", String s.file);
        ("slice", Obj s.slice);
        ("digest", String s.digest);
        ("records", Int s.records);
      ]

  let encode_manifest m =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "{\"schema\":%d,\"label\":%s,\"shards\":[" m.version
         (Json.to_string (String m.label)));
    List.iteri
      (fun i s ->
        Buffer.add_string buf (if i = 0 then "\n" else ",\n");
        Buffer.add_string buf (Json.to_string (json_of_shard s)))
      m.shards;
    Buffer.add_string buf "\n]}\n";
    Buffer.contents buf

  let shard_of_json j =
    let* file = need "file" (Json.member "file" j) in
    let* file = as_string "file" file in
    let* slice = need "slice" (Json.member "slice" j) in
    let* slice =
      match slice with
      | Json.Obj members -> Ok members
      | _ -> Error "store: shard slice is not an object"
    in
    let* digest = need "digest" (Json.member "digest" j) in
    let* digest = as_string "digest" digest in
    let* records = int_member "records" j in
    Ok { file; slice; digest; records }

  let decode_manifest text =
    let* j = Json.of_string text in
    let* version = int_member "schema" j in
    if version <> schema_version then
      Error
        (Printf.sprintf
           "store: unsupported manifest schema version %d (this build reads \
            version %d)"
           version schema_version)
    else
      let* label = need "label" (Json.member "label" j) in
      let* label = as_string "label" label in
      let* shards = need "shards" (Json.member "shards" j) in
      let* shards =
        match shards with
        | Json.List items -> map_result shard_of_json items
        | _ -> Error "store: shards is not a list"
      in
      Ok { version; label; shards }

  let load_manifest ~dir =
    let* text = read_file (Filename.concat dir manifest_file) in
    decode_manifest text

  let load_shard ~dir s =
    let* text = read_file (Filename.concat dir s.file) in
    let* st = decode text in
    let got = digest_of_store st in
    if got <> s.digest then
      Error
        (Printf.sprintf
           "store: shard %s digest mismatch (manifest %s, file %s)" s.file
           s.digest got)
    else Ok st

  let save ?slice ~dir t =
    let shards = shard ?slice t in
    (* a shard whose digest the previous manifest already lists is left
       untouched on disk: partial re-runs replace only what changed *)
    let previous =
      match load_manifest ~dir with Ok m -> m.shards | Error _ -> []
    in
    let prev_digests = List.map (fun s -> (s.file, s.digest)) previous in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    List.iter
      (fun (info, st) ->
        let unchanged =
          List.assoc_opt info.file prev_digests = Some info.digest
        in
        if not unchanged then
          write_file (Filename.concat dir info.file) (encode st))
      shards;
    List.iter
      (fun old ->
        if not (List.exists (fun (info, _) -> info.file = old.file) shards)
        then try Sys.remove (Filename.concat dir old.file) with Sys_error _ -> ())
      previous;
    let m =
      { version = schema_version; label = t.label; shards = List.map fst shards }
    in
    write_file (Filename.concat dir manifest_file) (encode_manifest m);
    m

  let load ~dir =
    let* m = load_manifest ~dir in
    let* stores = map_result (load_shard ~dir) m.shards in
    Ok
      {
        version = m.version;
        label = m.label;
        records = List.concat_map (fun (st : t) -> st.records) stores;
      }

  let diff ?slice ~baseline_dir current =
    let* m = load_manifest ~dir:baseline_dir in
    let cur_shards = shard ?slice current in
    let base_by_key = List.map (fun s -> (params_key s.slice, s)) m.shards in
    let cur_keys =
      List.map (fun (info, _) -> params_key info.slice) cur_shards
    in
    let* per_shard =
      map_result
        (fun (info, st) ->
          match List.assoc_opt (params_key info.slice) base_by_key with
          | Some base when base.digest = info.digest ->
              Ok [] (* unchanged: skipped without decoding the baseline *)
          | Some base ->
              let* base_store = load_shard ~dir:baseline_dir base in
              Ok
                (List.map
                   (fun c -> (info.file, c))
                   (diff_changes ~baseline:base_store ~current:st))
          | None -> Ok (List.map (fun r -> (info.file, Added r)) st.records))
        cur_shards
    in
    let* removed =
      map_result
        (fun base ->
          if List.mem (params_key base.slice) cur_keys then Ok []
          else
            let* st = load_shard ~dir:baseline_dir base in
            Ok (List.map (fun r -> (base.file, Removed r)) st.records))
        m.shards
    in
    Ok (List.concat per_shard @ List.concat removed)
end

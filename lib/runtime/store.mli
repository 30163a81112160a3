(** Schema-versioned results store for sweep runs.

    One {!record} per sweep point: the point's parameters, the measured
    rounds / messages / advice bits, the wall-clock time, and a
    {!Metrics} snapshot.  A store serializes to JSON (hand-rolled codec
    — no external dependency) with an explicit [schema] field; decoding
    a file whose version differs from {!schema_version} fails, so a
    record layout change can never be misread silently — bump the
    version instead.

    Timing fields ([wall_ns] and [Metrics.Timing] entries) are the only
    nondeterministic content; {!strip_timing} removes them, after which
    two encodings of the same sweep are byte-identical regardless of
    the domain count that produced them. *)

val schema_version : int
(** Current record-layout version (bump on any layout change). *)

type record = {
  params : (string * Shades_json.Json.t) list;  (** the sweep point, e.g. delta/k *)
  rounds : int;
  messages : int;
  advice_bits : int;
  wall_ns : int;  (** wall-clock for the point; 0 after strip_timing *)
  metrics : (string * Metrics.value) list;  (** name-sorted snapshot *)
}

type t = { version : int; label : string; records : record list }

val make : ?label:string -> record list -> t
(** A store at {!schema_version}. *)

val metric : record -> string -> Metrics.value option

val json_of_metric : Metrics.value -> Shades_json.Json.t
(** One instrument as a tagged JSON object ([{"kind": "counter", ...}]
    etc.) — the encoding records use, shared with the daemon's [stats]
    endpoint so metric snapshots render identically everywhere. *)

val encode : t -> string
(** Render to JSON text (one record per line, stable layout). *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; rejects any [version <> schema_version] and
    any malformed record. *)

val strip_timing : t -> t
(** Zero every [wall_ns] and drop every [Metrics.Timing] entry — the
    canonical form for cross-run and cross-domain-count comparison. *)

type change =
  | Added of record  (** point present in current only *)
  | Removed of record  (** point present in baseline only *)
  | Changed of record * string list
      (** same point, different non-timing measurements; the strings
          name the drifted fields ("rounds 1 -> 2") *)

val is_changed : change -> bool
(** [true] exactly for {!Changed} — a measured value drifted, as
    opposed to a grid-shape difference. *)

val pp_change : change -> string
(** One human-readable line ("added …" / "removed …" / "changed …"). *)

val diff_changes : baseline:t -> current:t -> change list
(** Every sweep point whose non-timing measurements differ between two
    stores (records are matched by [params]); includes points present
    on one side only.  Empty means the runs agree. *)

val diff : baseline:t -> current:t -> string list
(** [diff_changes] rendered through {!pp_change}. *)

module Sharded : sig
  (** Sharded on-disk layout: one shard file per parameter slice plus a
      [manifest.json] naming each shard, its slice key, and a content
      digest.  Grids beyond ~10^4 points can replace one slice without
      rewriting the rest, and {!diff} streams shard-by-shard — a shard
      whose digest matches the baseline manifest is skipped without
      decoding.

      Digests are MD5 over the canonical ({!strip_timing}) encoding, so
      they are stable across domain counts and wall-clock noise; shard
      files themselves keep their timing fields.  Both the manifest and
      every shard file carry {!schema_version} and are rejected on
      mismatch. *)

  type shard = {
    file : string;  (** file name inside the store directory *)
    slice : (string * Shades_json.Json.t) list;  (** the slice key, e.g. family+delta *)
    digest : string;  (** hex MD5 of the canonical shard encoding *)
    records : int;
  }

  type manifest = { version : int; label : string; shards : shard list }

  val manifest_file : string
  (** ["manifest.json"]. *)

  val default_slice : record -> (string * Shades_json.Json.t) list
  (** The [family] and [delta] params of the record (those present). *)

  val digest_of_store : t -> string
  (** Hex MD5 of [encode (strip_timing store)]. *)

  val shard : ?slice:(record -> (string * Shades_json.Json.t) list) -> t -> (shard * t) list
  (** Partition a store by [slice] (default {!default_slice}):
      shards in first-appearance order, records in store order within
      each shard, so a store whose records are grouped by slice — as
      sweep grid order is — reassembles identically. *)

  val save : ?slice:(record -> (string * Shades_json.Json.t) list) -> dir:string -> t -> manifest
  (** Write shard files and the manifest under [dir] (created if
      missing).  A shard whose digest the existing manifest already
      lists is left untouched on disk; shard files from a previous
      layout that no longer exist are removed. *)

  val load_manifest : dir:string -> (manifest, string) result

  val load_shard : dir:string -> shard -> (t, string) result
  (** Decode one shard file and verify its digest against the
      manifest entry. *)

  val load : dir:string -> (t, string) result
  (** Reassemble the full store, shards in manifest order. *)

  val diff :
    ?slice:(record -> (string * Shades_json.Json.t) list) ->
    baseline_dir:string ->
    t ->
    ((string * change) list, string) result
  (** Stream the given current store shard-by-shard against the baseline manifest:
      slices with matching digests are skipped without decoding the
      baseline shard; drifting slices are decoded and diffed, each
      {!change} tagged with the shard file it lives in. *)
end

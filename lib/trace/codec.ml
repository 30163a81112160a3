module Bitstring = Shades_bits.Bitstring
module W = Shades_bits.Writer
module R = Shades_bits.Reader

(* Version 2 added the [Crash] event (tag 7) for adversarial fault
   plans; version bumps happen in Shades_versions.Versions (the
   registry shadescheck's version-drift rule enforces) and require
   re-blessing the committed trace baselines
   (`trace bless -b BENCH_tiny/traces`). *)
let format_version = Shades_versions.Versions.trace_format
let magic = Shades_versions.Versions.shtr_magic
let header_bytes = String.length magic + 1 + 8 (* magic, version, bit length *)

(* --- event bodies: 3-bit constructor tag + gamma-coded fields --- *)

let write_event w e =
  let body = W.create () in
  W.fixed body ~width:3 (Event.kind_rank e);
  (match e with
  | Event.Round_start { round } -> W.gamma body round
  | Event.Advice_read { v; bits } ->
      W.gamma body v;
      W.gamma body bits
  | Event.Send { round; v; port; size } | Event.Deliver { round; v; port; size }
    ->
      W.gamma body round;
      W.gamma body v;
      W.gamma body port;
      W.gamma body size
  | Event.Decide { v; round } | Event.Halt { v; round } ->
      W.gamma body v;
      W.gamma body round
  | Event.Sync_marker { round; v; port } ->
      W.gamma body round;
      W.gamma body v;
      W.gamma body port
  | Event.Crash { v; round } ->
      W.gamma body v;
      W.gamma body round);
  (* length-prefixed so a reader can resynchronize / skip *)
  W.gamma w (W.length body);
  W.bits w (W.contents body)

(* [R.gamma] inlined, because only a crafted blob holds a code wider
   than the native int and [R.gamma] would decode it to garbage: a
   unary prefix of [Sys.int_size] or more shifts past the word (the
   shift is unspecified and wraps on amd64), and a prefix of
   [Sys.int_size - 1] holds [max_int] or else wraps negative. *)
let gamma r =
  let width = R.unary r in
  let n =
    if width < Sys.int_size then (1 lsl width) + R.fixed r ~width - 1 else -1
  in
  if n < 0 then failwith "gamma-coded field overflows an int";
  n

let read_event r =
  let body_len = gamma r in
  if R.remaining r < body_len then failwith "truncated event body";
  let before = R.remaining r in
  let tag = R.fixed r ~width:3 in
  let e =
    match tag with
    | 0 -> Event.Round_start { round = gamma r }
    | 1 ->
        let v = gamma r in
        let bits = gamma r in
        Event.Advice_read { v; bits }
    | 2 | 3 ->
        let round = gamma r in
        let v = gamma r in
        let port = gamma r in
        let size = gamma r in
        if tag = 2 then Event.Send { round; v; port; size }
        else Event.Deliver { round; v; port; size }
    | 4 | 5 ->
        let v = gamma r in
        let round = gamma r in
        if tag = 4 then Event.Decide { v; round } else Event.Halt { v; round }
    | 6 ->
        let round = gamma r in
        let v = gamma r in
        let port = gamma r in
        Event.Sync_marker { round; v; port }
    | 7 ->
        let v = gamma r in
        let round = gamma r in
        Event.Crash { v; round }
    | t -> failwith (Printf.sprintf "unknown event tag %d" t)
  in
  if before - R.remaining r <> body_len then
    failwith "event body length mismatch";
  e

(* Seeds may be negative in principle: sign bit + gamma magnitude. *)
let write_signed w v =
  W.bit w (v < 0);
  W.gamma w (abs v)

let read_signed r =
  let neg = R.bit r in
  let m = gamma r in
  if neg then -m else m

let write_string w s =
  W.gamma w (String.length s);
  String.iter (fun c -> W.fixed w ~width:8 (Char.code c)) s

(* A decoded count or length is untrusted: before anything is allocated
   for it, it must fit the payload bits still unread at [unit] bits per
   item. *)
let read_bounded r ~unit ~what =
  let n = gamma r in
  if n > R.remaining r / unit then
    failwith
      (Printf.sprintf "%s %d exceeds the %d payload bits left" what n
         (R.remaining r));
  n

let read_string r =
  let n = read_bounded r ~unit:8 ~what:"label length" in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (R.fixed r ~width:8))
  done;
  Bytes.to_string b

let encode (t : Trace.t) =
  let w = W.create () in
  (match t.Trace.meta.Trace.engine with
  | Trace.Sync -> W.bit w false
  | Trace.Async { seed } ->
      W.bit w true;
      write_signed w seed);
  W.gamma w t.Trace.meta.Trace.graph_order;
  W.gamma w t.Trace.meta.Trace.advice_bits;
  write_string w t.Trace.meta.Trace.label;
  W.gamma w t.Trace.dropped;
  W.gamma w (Array.length t.Trace.events);
  Array.iter (write_event w) t.Trace.events;
  let bits = W.contents w in
  let packed = Bitstring.to_packed bits in
  let buf = Buffer.create (header_bytes + Bytes.length packed) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr format_version);
  let len = Bitstring.length bits in
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((len lsr (8 * i)) land 0xff))
  done;
  Buffer.add_bytes buf packed;
  Buffer.contents buf

(* Header parse shared by [decode] and [fold_events]: returns a bit
   reader positioned at the start of the payload. *)
let open_blob s =
  if String.length s < header_bytes then Error "truncated header"
  else if String.sub s 0 (String.length magic) <> magic then
    Error "bad magic: not a shades trace file"
  else begin
    let version = Char.code s.[String.length magic] in
    if version <> format_version then
      Error
        (Printf.sprintf "trace format version %d, this build reads version %d"
           version format_version)
    else begin
      let bit_len = ref 0 in
      for i = 0 to 7 do
        bit_len := (!bit_len lsl 8) lor Char.code s.[String.length magic + 1 + i]
      done;
      let bit_len = !bit_len in
      let payload_bytes = (bit_len + 7) / 8 in
      if bit_len < 0 || String.length s <> header_bytes + payload_bytes then
        Error
          (Printf.sprintf "payload truncated: header promises %d bits" bit_len)
      else
        let packed = Bytes.of_string (String.sub s header_bytes payload_bytes) in
        Ok (R.of_bitstring (Bitstring.of_packed packed bit_len))
    end
  end

(* Every event is at least as long as the shortest one, [Round_start
   {round = 0}]: a one-bit field under a 3-bit tag, behind the gamma
   code of that body length. *)
let min_event_bits =
  let w = W.create () in
  write_event w (Event.Round_start { round = 0 });
  W.length w

let read_meta r =
  let engine =
    if R.bit r then Trace.Async { seed = read_signed r } else Trace.Sync
  in
  let graph_order = gamma r in
  let advice_bits = gamma r in
  let label = read_string r in
  let dropped = gamma r in
  let count = read_bounded r ~unit:min_event_bits ~what:"event count" in
  ({ Trace.engine; graph_order; advice_bits; label }, dropped, count)

let fold_events s ~init ~f =
  match open_blob s with
  | Error _ as e -> e
  | Ok r -> (
      try
        let meta, _dropped, count = read_meta r in
        let acc = ref init in
        for _ = 1 to count do
          acc := f !acc (read_event r)
        done;
        if not (R.at_end r) then
          Error (Printf.sprintf "%d trailing bits after last event" (R.remaining r))
        else Ok (!acc, meta)
      with
      | R.Out_of_bits -> Error "truncated event stream"
      | Failure msg -> Error msg)

let decode s =
  match open_blob s with
  | Error _ as e -> e
  | Ok r -> (
      try
        let meta, dropped, count = read_meta r in
        (* explicit loop: Array.init's application order is unspecified *)
        let events = Array.make count (Event.Round_start { round = 0 }) in
        for i = 0 to count - 1 do
          events.(i) <- read_event r
        done;
        if not (R.at_end r) then
          Error (Printf.sprintf "%d trailing bits after last event" (R.remaining r))
        else Ok { Trace.meta; dropped; events }
      with
      | R.Out_of_bits -> Error "truncated event stream"
      | Failure msg -> Error msg)

let write ~path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode t))

let read ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> decode s
  | exception Sys_error msg -> Error msg

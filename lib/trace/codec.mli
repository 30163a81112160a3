(** Compact binary codec for traces, built on {!Shades_bits}.

    File layout: a fixed byte header — the 4-byte magic ["SHTR"], one
    format-version byte, and the bit length of the payload as an 8-byte
    big-endian integer — followed by the payload bits packed MSB-first
    ({!Shades_bits.Bitstring.to_packed}).  The payload encodes the
    metadata and then each event as a gamma length prefix plus a
    self-contained body (3-bit constructor tag, gamma-coded fields), so
    a reader can skip events it does not understand and a truncated
    file is detected rather than misread.

    {b Compatibility policy}: {!format_version} is bumped on any layout
    change; {!decode} rejects every other version explicitly (like
    [Store.schema_version], a trace is never misread silently).  The
    length prefix exists so a {e future} minor revision could add
    constructors that old readers skip, but as of version 1 any change
    is a version bump. *)

val format_version : int
(** Currently [1]. *)

val encode : Trace.t -> string
(** The full binary file content.  Deterministic: equal traces encode
    byte-identically. *)

val decode : string -> (Trace.t, string) result
(** Inverse of {!encode}.  [Error] (never an exception) on bad magic, a
    foreign format version, truncation, or any malformed event.
    Bounded: a claimed event count or label length is checked against
    the payload bits left before anything is allocated for it, so the
    memory a blob can make [decode] allocate is proportional to the
    blob's own size — the decoder is safe on untrusted bytes (the
    daemon's [verify-trace] feeds it uploads). *)

val write : path:string -> Trace.t -> unit
(** {!encode} to a file (truncating any existing one). *)

val read : path:string -> (Trace.t, string) result
(** {!decode} a file; unreadable files are an [Error], not an
    exception. *)

val fold_events :
  string -> init:'a -> f:('a -> Event.t -> 'a) -> ('a * Trace.meta, string) result
(** Streaming read over an encoded blob: decode the header, then fold
    [f] over events one at a time without materializing the array.
    {!decode} is this with an accumulating buffer.  Total and bounded
    exactly as {!decode}. *)

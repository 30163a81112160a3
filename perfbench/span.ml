(* In-memory spans for the traced run.  A span records a name, its
   start and stop (seconds, [Unix.gettimeofday]), its parent span and
   the op (request id) it belongs to.  Spans are appended to a
   mutex-guarded list while the run goes and read once it ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;  (** request id shared by every span of one op *)
  name : string;
  start : float;
  stop : float;
}

type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 1; lock = Mutex.create () }

let fresh_id t =
  Mutex.protect t.lock (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

(* Run [f id] inside a span named [name]; [f] receives the new span's id
   so the calls it makes can open child spans under it.  The span is
   recorded even when [f] raises. *)
let within t ~op ~parent name f =
  let id = fresh_id t in
  let start = Unix.gettimeofday () in
  let finally () =
    let s = { id; parent; op; name; start; stop = Unix.gettimeofday () } in
    Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)
  in
  Fun.protect ~finally (fun () -> f id)

let spans t = Mutex.protect t.lock (fun () -> List.rev t.spans)

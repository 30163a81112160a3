(* What one benchmark run prints: human-readable notes, then one JSON
   object as the last line of standard output. *)

module Json = Shades_json.Json

type t = {
  attempted : int;
  failed : int;
  setup_failures : int;  (** untimed set-up requests whose answer was wrong *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : string list;
}

(* Latencies of failed ops are infinite; JSON has no infinity, so a
   non-finite value prints as 1e9 (a limit nothing legitimate reaches). *)
let finite v = if Float.is_finite v then v else 1e9

let print t =
  List.iter print_endline t.notes;
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %14.6f %s\n" n v u) t.metrics;
  let correct = t.failed = 0 && t.setup_failures = 0 && t.attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int (max 1 t.attempted));
            ("failed", Json.Int t.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.String u) ]))
                   t.metrics) ) ]))

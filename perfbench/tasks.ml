(* The four election tasks as the benchmark's own reference: each task's
   minimum-time scheme, its referee, and its output codec.  The answer
   checks compare the daemon against these in-process runs, and the
   traced run re-executes an op's layers through them. *)

module Json = Shades_json.Json
module PG = Shades_graph.Port_graph
module Task = Shades_election.Task
module Scheme = Shades_election.Scheme
module Verify = Shades_election.Verify
module Map_advice = Shades_election.Map_advice

type impl =
  | Impl : {
      scheme : 'p Task.answer Scheme.t;
      verify : PG.t -> 'p Task.answer array -> (PG.vertex, string) result;
      payload_of_json : Json.t -> 'p option;
    }
      -> impl

let ints l =
  List.fold_right
    (fun j acc ->
      match (j, acc) with Json.Int p, Some ps -> Some (p :: ps) | _ -> None)
    l (Some [])

let impl = function
  | Task.S ->
      Impl
        {
          scheme = Shades_election.Select_by_view.scheme;
          verify = Verify.selection;
          payload_of_json =
            (function Json.String "follower" -> Some () | _ -> None);
        }
  | Task.PE ->
      Impl
        {
          scheme = Map_advice.port_election;
          verify = Verify.port_election;
          payload_of_json = (function Json.Int p -> Some p | _ -> None);
        }
  | Task.PPE ->
      Impl
        {
          scheme = Map_advice.port_path_election;
          verify = Verify.port_path_election;
          payload_of_json = (function Json.List l -> ints l | _ -> None);
        }
  | Task.CPPE ->
      Impl
        {
          scheme = Map_advice.complete_port_path_election;
          verify = Verify.complete_port_path_election;
          payload_of_json =
            (function
            | Json.List l ->
                List.fold_right
                  (fun j acc ->
                    match (j, acc) with
                    | Json.List [ Json.Int p; Json.Int q ], Some ps ->
                        Some ((p, q) :: ps)
                    | _ -> None)
                  l (Some [])
            | _ -> None);
        }

let kind_of_string s =
  match Shades_server.Protocol.task_of_string s with
  | Ok k -> k
  | Error e -> invalid_arg e

(* The daemon's semantics for [elect]: advice is computed on the
   canonical form and run on the graph as submitted, so the elected
   vertex is the one the service reports (a map-advice oracle run on
   the submitted numbering may pick another vertex).  Returns the
   referee's leader and the round count. *)
let elect g task =
  let (Impl { scheme; verify; _ }) = impl task in
  let canon, _ = PG.canonical g in
  let advice = scheme.Scheme.oracle canon in
  let r = Scheme.run_with_advice scheme g ~advice in
  (Result.to_option (verify g r.Scheme.outputs), r.Scheme.rounds)

(* Referee verdict on claimed outputs in wire form; [None] when the
   outputs do not even parse. *)
let verify_json g task outputs =
  let (Impl { verify; payload_of_json; _ }) = impl task in
  let answer = function
    | Json.String "leader" -> Some Task.Leader
    | j -> Option.map (fun p -> Task.Follower p) (payload_of_json j)
  in
  match outputs with
  | Json.List l when List.length l = PG.order g ->
      let answers = List.map answer l in
      if List.mem None answers then None
      else Some (Result.is_ok (verify g (Array.of_list (List.map Option.get answers))))
  | _ -> None

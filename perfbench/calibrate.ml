(* Usage: calibrate.exe OUT

   Writes the map-advice election catalogue the serve workloads draw
   from: random graphs on which an elect of task PE, PPE or CPPE cost
   between 5 and 40 ms in-process (fresh service: canonical digest,
   oracle, engine, referee).  Map-advice costs swing by two orders of
   magnitude between random graphs of the same size, so drawing such
   elections freely would make every run's figures hostage to a few
   outliers; the catalogue fixes their cost band once, on the machine
   that calibrates it.  One line per graph: task, spec, cost in ms. *)

module Json = Shades_json.Json
module Service = Shades_server.Service

let per_task = 200
let band = (0.005, 0.040)

let () =
  let out = Sys.argv.(1) in
  let oc = open_out out in
  List.iteri
    (fun k (task, lo, hi) ->
      let st = Random.State.make [| 20211; k |] in
      let rec go kept tried =
        if kept < per_task && tried < 20 * per_task then begin
          let n = lo + Random.State.int st (hi - lo + 1) in
          let spec = Printf.sprintf "random:%d,%d,%d" (Random.State.bits st) n (n / 2) in
          let req =
            Json.Obj
              [ ("op", Json.String "elect"); ("graph", Json.String spec);
                ("task", Json.String task) ]
          in
          let t0 = Unix.gettimeofday () in
          let ok =
            match Service.handle (Service.create ()) req with
            | Service.Reply r -> Json.member "ok" r = Some (Json.Bool true)
            | Service.Reply_and_stop _ -> false
          in
          let dt = Unix.gettimeofday () -. t0 in
          if ok && dt >= fst band && dt <= snd band then begin
            Printf.fprintf oc "%s %s %.1f\n%!" task spec (dt *. 1000.);
            go (kept + 1) (tried + 1)
          end
          else go kept (tried + 1)
        end
        else Printf.eprintf "%s: kept %d of %d tried\n%!" task kept tried
      in
      go 0 0)
    [ ("pe", 16, 40); ("ppe", 16, 22); ("cppe", 16, 22) ];
  close_out oc

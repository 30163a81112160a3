(* Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload and prints its metrics; the last line of standard
   output is the JSON result.  Run it from the repository root after
   building (perfbench/run.sh does both). *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  (* a signal still runs the at_exit hooks that stop the daemon *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "serve-cold | serve-hot | serve-spill | sweep-grid");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "1: traced per-layer run, 0: end-to-end run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced =
    match !trace with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Arg.Bad "--trace takes 0 or 1")
  in
  let serve w = Serve.execute w ~seed:!seed ~seconds:!seconds ~traced in
  let report =
    match !workload with
    | "serve-cold" -> serve Serve.Cold
    | "serve-hot" -> serve Serve.Hot
    | "serve-spill" -> serve Serve.Spill
    | "sweep-grid" -> Grid.execute ~seed:!seed ~seconds:!seconds ~traced
    | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
  in
  Report.print report

(* The map-advice election catalogue written by calibrate.exe: random
   graphs on which a PE, PPE or CPPE election costs a bounded amount.
   Generators draw from it in a seeded order, without replacement. *)

let path = "perfbench/elect_catalog.txt"

type t = (string, string array) Hashtbl.t  (** task -> specs *)

let load ?(path = path) () : t =
  let ic = open_in path in
  let h = Hashtbl.create 3 in
  let rec read acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | task :: spec :: _ -> read ((task, spec) :: acc)
        | _ -> read acc)
    | exception End_of_file -> List.rev acc
  in
  let entries = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read []) in
  List.iter
    (fun task ->
      let specs = List.filter_map (fun (t, s) -> if t = task then Some s else None) entries in
      if specs = [] then failwith (path ^ ": no " ^ task ^ " graphs");
      Hashtbl.replace h task (Array.of_list specs))
    [ "pe"; "ppe"; "cppe" ];
  h

(* [draw task] is the next unused catalogue graph for [task] in a
   seeded order, or [None] once the task's graphs are used up. *)
let drawer (cat : t) st =
  let order =
    List.map
      (fun task ->
        let a = Array.copy (Hashtbl.find cat task) in
        Stats.shuffle st a;
        (task, (a, ref 0)))
      [ "pe"; "ppe"; "cppe" ]
  in
  fun task ->
    let a, next = List.assoc task order in
    if !next >= Array.length a then None
    else (
      incr next;
      Some a.(!next - 1))

type kind = S | PE | PPE | CPPE

let all = [ S; PE; PPE; CPPE ]

let kind_to_string = function
  | S -> "S"
  | PE -> "PE"
  | PPE -> "PPE"
  | CPPE -> "CPPE"

let of_string s =
  match String.lowercase_ascii s with
  | "s" -> Ok S
  | "pe" -> Ok PE
  | "ppe" -> Ok PPE
  | "cppe" -> Ok CPPE
  | t -> Error ("unknown task: " ^ t ^ " (expected s, pe, ppe, cppe)")

type 'a answer = Leader | Follower of 'a

let answer_equal eq a b =
  match (a, b) with
  | Leader, Leader -> true
  | Follower x, Follower y -> eq x y
  | Leader, Follower _ | Follower _, Leader -> false

let pp_answer pp_payload fmt = function
  | Leader -> Format.pp_print_string fmt "leader"
  | Follower x -> pp_payload fmt x

type _ payload =
  | Unit : unit payload
  | Port : int payload
  | Ports : int list payload
  | Port_pairs : (int * int) list payload

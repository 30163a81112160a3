(** The four formulations of leader election (Section 1 of the paper).

    - Selection (S): one node outputs leader, the rest non-leader.
    - Port Election (PE): each non-leader outputs the first port on a
      simple path from it to the leader.
    - Port Path Election (PPE): each non-leader outputs the sequence of
      outgoing ports along a simple path to the leader.
    - Complete Port Path Election (CPPE): each non-leader outputs the
      full sequence (p1, q1, ..., pk, qk) of both ports per edge. *)

type kind = S | PE | PPE | CPPE

(** All four, in increasing order of strength. *)
val all : kind list

val kind_to_string : kind -> string

val of_string : string -> (kind, string) result
(** ["s"], ["pe"], ["ppe"] or ["cppe"] (case-insensitive) — the task
    spelling of the CLI and the daemon's wire protocol alike. *)

(** A node's answer for a task whose non-leader payload has type ['a]:
    [unit] for S, [int] for PE, [int list] for PPE and
    [(int * int) list] for CPPE. *)
type 'a answer = Leader | Follower of 'a

val answer_equal : ('a -> 'a -> bool) -> 'a answer -> 'a answer -> bool

val pp_answer :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a answer -> unit

(** The shape of a non-leader's payload, as a type witness: matching on
    it tells the type checker what ['p] is, so codecs and printers can
    be written once over all four tasks. *)
type _ payload =
  | Unit : unit payload  (** S: a follower says nothing more *)
  | Port : int payload  (** PE: the first port towards the leader *)
  | Ports : int list payload  (** PPE: the outgoing ports of a path *)
  | Port_pairs : (int * int) list payload
      (** CPPE: both ports of every edge of a path *)

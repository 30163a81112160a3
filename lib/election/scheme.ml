module Exec = Shades_localsim.Exec

type 'o t = {
  name : string;
  oracle : Shades_graph.Port_graph.t -> Shades_bits.Bitstring.t;
  rounds_of : advice:Shades_bits.Bitstring.t -> degree:int -> int;
  decide : advice:Shades_bits.Bitstring.t -> Shades_views.View_tree.t -> 'o;
}

type 'o run = { outputs : 'o array; rounds : int; advice_bits : int }

let algorithm scheme ~advice =
  Shades_localsim.Full_info.algorithm ~rounds_of:scheme.rounds_of
    ~decide:(fun view -> scheme.decide ~advice view)

let run ?exec ?advice ?max_rounds ?on_round ?tracer scheme g =
  let advice = match advice with Some a -> a | None -> scheme.oracle g in
  let outputs, rounds =
    Shades_localsim.Full_info.run_adaptive ?exec ?max_rounds ?on_round ?tracer
      g ~advice ~rounds_of:scheme.rounds_of ~decide:scheme.decide
  in
  { outputs; rounds; advice_bits = Shades_bits.Bitstring.length advice }

let run_with_advice ?max_rounds ?on_round ?tracer scheme g ~advice =
  run ~advice ?max_rounds ?on_round ?tracer scheme g

let run_async ?(seed = 0) ?on_round ?tracer scheme g =
  run ~exec:(Exec.Async { seed }) ?on_round ?tracer scheme g

let run_sharded_with_advice ?domains ?on_round ?tracer scheme g ~advice =
  run ~exec:(Exec.Sharded { domains }) ~advice ?on_round ?tracer scheme g

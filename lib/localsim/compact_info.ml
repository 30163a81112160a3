module Cview = Shades_views.Cview

let run_adaptive g ~advice ~rounds_of ~decide =
  let ctx = Cview.create_ctx () in
  let result =
    Engine.run g ~advice
      (Full_info.exchange
         ~leaf:(fun degree -> Cview.make ctx ~degree ~children:[||])
         ~node:(fun degree children -> Cview.make ctx ~degree ~children)
         ~degree_of:(fun view -> view.Cview.degree)
         ~rounds_of
         ~decide:(fun view -> decide ~advice ctx view))
  in
  (result.Engine.outputs, result.Engine.rounds)

let run g ~rounds ~advice ~decide =
  if rounds < 0 then invalid_arg "Compact_info.run";
  let outputs, used =
    run_adaptive g ~advice
      ~rounds_of:(fun ~advice:_ ~degree:_ -> rounds)
      ~decide
  in
  assert (used = rounds);
  outputs

(* The index kinds siri_cli and siri_serve build, and their --index flag. *)

type t = Pos | Mpt | Mbt | Mvbt | Prolly

let make ?pool kind store =
  match kind with
  | Pos ->
      Siri_pos.Pos_tree.generic ?pool
        (Siri_pos.Pos_tree.empty store (Siri_pos.Pos_tree.config ()))
  | Prolly -> Siri_prolly.Prolly.generic ?pool (Siri_prolly.Prolly.empty store)
  | Mpt -> Siri_mpt.Mpt.generic ?pool (Siri_mpt.Mpt.empty store)
  | Mbt ->
      Siri_mbt.Mbt.generic ?pool
        (Siri_mbt.Mbt.empty store (Siri_mbt.Mbt.config ~capacity:1024 ~fanout:4 ()))
  | Mvbt ->
      Siri_mvbt.Mvbt.generic ?pool
        (Siri_mvbt.Mvbt.empty store (Siri_mvbt.Mvbt.config ()))

let arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [ ("pos", Pos); ("mpt", Mpt); ("mbt", Mbt); ("mvbt", Mvbt);
             ("prolly", Prolly) ])
        Pos
    & info [ "i"; "index" ] ~docv:"INDEX"
        ~doc:"Index structure: $(b,pos), $(b,mpt), $(b,mbt), $(b,mvbt) or $(b,prolly).")

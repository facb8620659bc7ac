module Store = Siri_store.Store
module Pos_tree = Siri_pos.Pos_tree

type t = Pos_tree.t

let config ?(node_target = 4096) () =
  Pos_tree.config_prolly ~leaf_target:node_target ~internal_target:node_target
    ()

let default_config = config ()
let empty store = Pos_tree.empty store default_config
let of_entries store entries = Pos_tree.of_entries store default_config entries

let of_sorted ?pool store entries =
  Pos_tree.of_sorted ?pool store default_config entries

let generic ?pool t = Pos_tree.generic_named ?pool "prolly" t

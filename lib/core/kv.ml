type key = string
type value = string
type op = Put of key * value | Del of key

let key_of_op = function Put (k, _) -> k | Del k -> k

let sort_ops ops =
  (* Stable sort, then keep the last op for each key: tag with position so
     the later op in the original batch wins. *)
  let tagged = List.mapi (fun i op -> (i, op)) ops in
  let sorted =
    List.sort
      (fun (i, a) (j, b) ->
        match String.compare (key_of_op a) (key_of_op b) with
        | 0 -> compare i j
        | c -> c)
      tagged
  in
  let rec dedup = function
    | (_, a) :: ((_, b) :: _ as rest) when key_of_op a = key_of_op b ->
        dedup rest
    | (_, a) :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let apply_sorted entries ops =
  let rec go entries ops acc =
    match (entries, ops) with
    | [], [] -> List.rev acc
    | [], Put (k, v) :: ops -> go [] ops ((k, v) :: acc)
    | [], Del _ :: ops -> go [] ops acc
    | e :: rest, [] -> go rest [] (e :: acc)
    | ((ek, _) as e) :: erest, op :: orest -> (
        let ok = key_of_op op in
        match String.compare ek ok with
        | c when c < 0 -> go erest ops (e :: acc)
        | 0 -> (
            match op with
            | Put (k, v) -> go erest orest ((k, v) :: acc)
            | Del _ -> go erest orest acc)
        | _ -> (
            match op with
            | Put (k, v) -> go entries orest ((k, v) :: acc)
            | Del _ -> go entries orest acc))
  in
  go entries ops []

let sort_entries entries =
  apply_sorted [] (sort_ops (List.map (fun (k, v) -> Put (k, v)) entries))

type diff_entry = { key : key; left : value option; right : value option }

let pp_diff_entry fmt { key; left; right } =
  let pp_v fmt = function
    | None -> Format.pp_print_string fmt "-"
    | Some v ->
        if String.length v > 16 then
          Format.fprintf fmt "%S..." (String.sub v 0 16)
        else Format.fprintf fmt "%S" v
  in
  Format.fprintf fmt "%S: %a | %a" key pp_v left pp_v right

let diff_sorted l r =
  let rec go l r acc =
    match (l, r) with
    | [], [] -> List.rev acc
    | (k, v) :: l, [] -> go l [] ({ key = k; left = Some v; right = None } :: acc)
    | [], (k, v) :: r -> go [] r ({ key = k; left = None; right = Some v } :: acc)
    | (lk, lv) :: l', (rk, rv) :: r' -> (
        match String.compare lk rk with
        | c when c < 0 ->
            go l' r ({ key = lk; left = Some lv; right = None } :: acc)
        | 0 ->
            if String.equal lv rv then go l' r' acc
            else
              go l' r' ({ key = lk; left = Some lv; right = Some rv } :: acc)
        | _ -> go l r' ({ key = rk; left = None; right = Some rv } :: acc))
  in
  go l r []

type merge_policy =
  | Prefer_left
  | Prefer_right
  | Fail_on_conflict
  | Resolve of (key -> value -> value -> value)

type conflict = { key : key; left_value : value; right_value : value }

let merge_values policy key left_value right_value =
  if String.equal left_value right_value then Ok left_value
  else
    match policy with
    | Prefer_left -> Ok left_value
    | Prefer_right -> Ok right_value
    | Fail_on_conflict -> Error { key; left_value; right_value }
    | Resolve f -> Ok (f key left_value right_value)

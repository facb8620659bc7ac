(* Integer counters out of a telemetry JSON export: the object under
   ["counters"], a flat map of names to integers. *)

let of_stats_json json =
  let tbl = Hashtbl.create 64 in
  let marker = "\"counters\":{" in
  let ml = String.length marker and n = String.length json in
  let rec find i =
    if i + ml > n then None
    else if String.sub json i ml = marker then Some (i + ml)
    else find (i + 1)
  in
  (match find 0 with
  | None -> ()
  | Some start -> (
      match String.index_from_opt json start '}' with
      | None -> ()
      | Some stop ->
          String.sub json start (stop - start)
          |> String.split_on_char ','
          |> List.iter (fun pair ->
                 match String.rindex_opt pair ':' with
                 | Some c when String.length pair > 2 && pair.[0] = '"' -> (
                     let name = String.sub pair 1 (c - 2) in
                     match
                       int_of_string_opt
                         (String.sub pair (c + 1) (String.length pair - c - 1))
                     with
                     | Some v -> Hashtbl.replace tbl name v
                     | None -> ())
                 | _ -> ())));
  tbl

let get tbl name = Option.value ~default:0 (Hashtbl.find_opt tbl name)

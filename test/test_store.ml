(* Content-addressed store: dedup on put, reachability, GC, tamper
   detection, observers, stats. *)

module Store = Siri_store.Store
module Hash = Siri_crypto.Hash

let test_put_get () =
  let s = Store.create () in
  let h = Store.put s "hello" in
  Alcotest.(check string) "get" "hello" (Store.get s h);
  Alcotest.(check bool) "mem" true (Store.mem s h);
  Alcotest.(check bool) "content hash" true (Hash.equal h (Hash.of_string "hello"));
  Alcotest.(check bool) "missing" false (Store.mem s (Hash.of_string "nope"));
  Alcotest.(check (option string)) "find none" None (Store.find s (Hash.of_string "nope"))

let test_dedup_on_put () =
  let s = Store.create () in
  let h1 = Store.put s "same" in
  let h2 = Store.put s "same" in
  Alcotest.(check bool) "same hash" true (Hash.equal h1 h2);
  let st = Store.stats s in
  Alcotest.(check int) "2 puts" 2 st.puts;
  Alcotest.(check int) "1 unique" 1 st.unique_nodes;
  Alcotest.(check int) "stored once" 4 st.stored_bytes;
  Alcotest.(check int) "put bytes counted twice" 8 st.put_bytes

let test_children_and_size () =
  let s = Store.create () in
  let a = Store.put s "leaf-a" in
  let b = Store.put s "leaf-b" in
  let p = Store.put s ~children:[ a; b ] "parent" in
  Alcotest.(check int) "children" 2 (List.length (Store.children s p));
  Alcotest.(check int) "size" 6 (Store.size_of s a)

(* Build a little diamond: root -> {l, r}, l -> shared, r -> shared. *)
let diamond s =
  let shared = Store.put s "shared" in
  let l = Store.put s ~children:[ shared ] "left" in
  let r = Store.put s ~children:[ shared ] "right" in
  let root = Store.put s ~children:[ l; r ] "root" in
  (root, l, r, shared)

let test_reachability () =
  let s = Store.create () in
  let root, l, _, shared = diamond s in
  let set = Store.reachable s root in
  Alcotest.(check int) "4 nodes" 4 (Hash.Set.cardinal set);
  Alcotest.(check bool) "includes shared" true (Hash.Set.mem shared set);
  let sub = Store.reachable s l in
  Alcotest.(check int) "subtree" 2 (Hash.Set.cardinal sub);
  Alcotest.(check int) "bytes" (String.length "root" + 4 + 5 + 6)
    (Store.bytes_of_set s set)

let test_reachable_many_shares_walk () =
  let s = Store.create () in
  let root, l, r, _ = diamond s in
  let set = Store.reachable_many s [ l; r ] in
  Alcotest.(check int) "union of two subtrees" 3 (Hash.Set.cardinal set);
  let all = Store.reachable_many s [ root; l; r ] in
  Alcotest.(check int) "superset" 4 (Hash.Set.cardinal all)

let test_null_and_missing_children () =
  let s = Store.create () in
  (* Children that are null or absent are skipped, not errors. *)
  let p = Store.put s ~children:[ Hash.null; Hash.of_string "absent" ] "p" in
  Alcotest.(check int) "only self" 1 (Hash.Set.cardinal (Store.reachable s p))

let test_gc () =
  let s = Store.create () in
  let root, _, _, _ = diamond s in
  let dead = Store.put s "garbage" in
  let reclaimed = Store.gc s ~roots:[ root ] in
  Alcotest.(check int) "1 reclaimed" 1 reclaimed;
  Alcotest.(check bool) "dead gone" false (Store.mem s dead);
  Alcotest.(check bool) "root kept" true (Store.mem s root);
  Alcotest.(check int) "stats updated" 4 (Store.stats s).unique_nodes

let test_gc_keeps_all_roots () =
  let s = Store.create () in
  let a = Store.put s "a" in
  let b = Store.put s "b" in
  let reclaimed = Store.gc s ~roots:[ a; b ] in
  Alcotest.(check int) "nothing reclaimed" 0 reclaimed

let test_corrupt_detection () =
  let s = Store.create () in
  let h = Store.put s "precious data" in
  (match Store.get_verified s h with
  | Ok v -> Alcotest.(check string) "verified ok" "precious data" v
  | Error _ -> Alcotest.fail "should verify");
  Store.corrupt s h;
  (match Store.get_verified s h with
  | Ok _ -> Alcotest.fail "tampering not detected"
  | Error (`Tampered t) -> Alcotest.(check bool) "names hash" true (Hash.equal t h))

let test_observers () =
  let s = Store.create () in
  let gets = ref 0 and puts = ref 0 in
  Store.set_get_observer s (Some (fun _ size -> gets := !gets + size));
  Store.set_put_observer s (Some (fun _ size -> puts := !puts + size));
  let h = Store.put s "12345" in
  ignore (Store.get s h);
  ignore (Store.get s h);
  Alcotest.(check int) "puts observed" 5 !puts;
  Alcotest.(check int) "gets observed" 10 !gets;
  Store.set_get_observer s None;
  ignore (Store.get s h);
  Alcotest.(check int) "observer removed" 10 !gets

let test_reset_counters () =
  let s = Store.create () in
  let h = Store.put s "x" in
  ignore (Store.get s h);
  Store.reset_counters s;
  let st = Store.stats s in
  Alcotest.(check int) "puts zero" 0 st.puts;
  Alcotest.(check int) "gets zero" 0 st.gets;
  Alcotest.(check int) "unique kept" 1 st.unique_nodes

let test_read_gate () =
  let s = Store.create () in
  let h = Store.put s "gated" in
  let calls = ref 0 in
  Store.set_read_gate s
    (Some
       (fun gh _bytes ->
         incr calls;
         if !calls = 1 then raise (Store.Transient gh)));
  (match Store.get s h with
  | _ -> Alcotest.fail "expected transient fault"
  | exception Store.Transient th ->
      Alcotest.(check bool) "names hash" true (Hash.equal th h));
  (* The fault was transient: the very next read succeeds. *)
  Alcotest.(check string) "retry succeeds" "gated" (Store.get s h);
  Store.set_read_gate s None;
  Alcotest.(check string) "gate removed" "gated" (Store.get s h);
  Alcotest.(check int) "gate saw two reads" 2 !calls

let test_scrub_finds_damage () =
  let s = Store.create () in
  let root, l, _r, shared = diamond s in
  let stray = Store.put s "stray-unreachable" in
  (match Store.scrub s with
  | r ->
      Alcotest.(check int) "clean scan" 5 r.Store.scanned;
      Alcotest.(check bool) "clean" true (Store.scrub_clean r));
  Store.corrupt_at s l ~pos:2;
  Alcotest.(check bool) "remove shared" true (Store.remove_node s shared);
  let r = Store.scrub ~roots:[ root ] s in
  Alcotest.(check (list string)) "corrupt = [l]" [ Hash.to_hex l ]
    (List.map Hash.to_hex r.Store.corrupt);
  (* Both parents of the removed child report a dangling reference. *)
  Alcotest.(check int) "two dangling edges" 2 (List.length r.Store.dangling);
  List.iter
    (fun (_, c) ->
      Alcotest.(check bool) "dangling names shared" true (Hash.equal c shared))
    r.Store.dangling;
  Alcotest.(check (list string)) "orphan = [stray]" [ Hash.to_hex stray ]
    (List.map Hash.to_hex r.Store.orphaned);
  Alcotest.(check bool) "not clean" false (Store.scrub_clean r)

let test_truncate_node () =
  let s = Store.create () in
  let h = Store.put s "0123456789" in
  Store.truncate_node s h ~keep:4;
  Alcotest.(check string) "torn write" "0123" (Store.get s h);
  Alcotest.(check int) "stored bytes adjusted" 4 (Store.stats s).stored_bytes;
  let r = Store.scrub s in
  Alcotest.(check int) "truncation detected" 1 (List.length r.Store.corrupt)

let test_repair_from_replica () =
  let s = Store.create () in
  let root, l, r, shared = diamond s in
  (* Pristine replica taken before the damage. *)
  let replica = Store.create () in
  Store.iter_nodes s (fun bytes children ->
      ignore (Store.put replica ~children bytes));
  Store.corrupt s l;
  Store.truncate_node s r ~keep:1;
  ignore (Store.remove_node s shared);
  Alcotest.(check bool) "damage visible" false (Store.scrub_clean (Store.scrub s));
  let grafted = Store.repair s ~replica in
  Alcotest.(check int) "l, r and shared restored" 3 grafted;
  Alcotest.(check bool) "clean after repair" true (Store.scrub_clean (Store.scrub s));
  Alcotest.(check string) "payload healed" "left" (Store.get s l);
  Alcotest.(check int) "reachable closure restored" 4
    (Hash.Set.cardinal (Store.reachable s root))

let test_repair_rejects_corrupt_replica () =
  let s = Store.create () in
  let h = Store.put s "precious" in
  let replica = Store.create () in
  Store.iter_nodes s (fun bytes children ->
      ignore (Store.put replica ~children bytes));
  (* Damage BOTH stores: the replica cannot supply authentic bytes for [h],
     so repair must quarantine without resurrecting bad data under [h]. *)
  Store.corrupt s h;
  Store.corrupt replica h;
  ignore (Store.repair s ~replica);
  Alcotest.(check bool) "corrupt node quarantined" false (Store.mem s h);
  let r = Store.scrub s in
  Alcotest.(check int) "no corrupt node survives" 0 (List.length r.Store.corrupt)

let qcheck_content_addressing =
  QCheck.Test.make ~name:"hash equality = content equality" ~count:300
    QCheck.(pair string string)
    (fun (a, b) ->
      let s = Store.create () in
      let ha = Store.put s a and hb = Store.put s b in
      Hash.equal ha hb = (a = b))

(* --- concurrent readers beside a writer ----------------------------------- *)

(* Two domains re-read every node of a fixed version while the main
   domain inserts 100k fresh nodes, resizing the node table several
   times.  A read that lands inside a resize must still find its node. *)
let test_readers_beside_writer () =
  let s = Store.create () in
  let v =
    Siri_core.Generic.of_entries
      (Siri_pos.Pos_tree.generic
         (Siri_pos.Pos_tree.empty s (Siri_pos.Pos_tree.config ())))
      (List.init 2000 (fun i ->
           (Printf.sprintf "key-%05d" i, Printf.sprintf "value-%d" i)))
  in
  let version = Hash.Set.elements (Store.reachable s v.Siri_core.Generic.root) in
  let writing = Atomic.make true in
  let missing = Atomic.make 0 and reads = Atomic.make 0 in
  let reader () =
    while Atomic.get writing do
      List.iter
        (fun h ->
          Atomic.incr reads;
          if Store.find s h = None then Atomic.incr missing)
        version
    done
  in
  let writer () =
    for i = 1 to 100_000 do
      ignore (Store.put s (Printf.sprintf "filler-node-%d" i) : Hash.t)
    done;
    Atomic.set writing false
  in
  let readers = List.map Domain.spawn [ reader; reader ] in
  writer ();
  List.iter Domain.join readers;
  Alcotest.(check bool) "readers overlapped the writer" true (Atomic.get reads > 0);
  Alcotest.(check int) "no missing nodes" 0 (Atomic.get missing);
  Alcotest.(check int) "every insert landed"
    (100_000 + List.length version)
    (Store.stats s).Store.unique_nodes

(* --- backend ---------------------------------------------------------------- *)

(* A backend over a plain table, counting the writes and reads that reach
   it. *)
let table_backend () =
  let tbl = Hash.Table.create 16 in
  let writes = ref 0 and reads = ref 0 in
  let b =
    { Store.backend_name = "table";
      backend_read =
        (fun h ->
          incr reads;
          Option.map fst (Hash.Table.find_opt tbl h));
      backend_children = (fun h -> Option.map snd (Hash.Table.find_opt tbl h));
      backend_mem = Hash.Table.mem tbl;
      backend_write =
        (fun nodes ->
          writes := !writes + List.length nodes;
          List.iter (fun (h, b, c) -> Hash.Table.replace tbl h (b, c)) nodes);
      backend_flush = (fun ~sync:_ -> ());
      backend_corrupt = (fun () -> []);
      backend_compact = (fun ~live:_ -> []);
      backend_count = (fun () -> Hash.Table.length tbl);
      backend_bytes =
        (fun () -> Hash.Table.fold (fun _ (b, _) acc -> acc + String.length b) tbl 0) }
  in
  (b, writes, reads)

let table_size s =
  let n = ref 0 in
  Store.iter_nodes s (fun _ _ -> incr n);
  !n

(* A node stored before the backend is attached moves into it: the
   table empties and every read finds the node in its one place. *)
let test_attach_moves_table () =
  let s = Store.create () in
  let a = Store.put s "leaf-a" in
  let root = Store.put s ~children:[ a ] "root" in
  let b, writes, _ = table_backend () in
  Store.set_backend s (Some b);
  Alcotest.(check int) "table emptied" 0 (table_size s);
  Alcotest.(check int) "both nodes moved" 2 !writes;
  Alcotest.(check string) "read from the backend" "leaf-a" (Store.get s a);
  Alcotest.(check int) "children from the backend" 1
    (List.length (Store.children s root));
  let c = Store.put s "leaf-c" in
  ignore (Store.put s "leaf-a" : Hash.t);
  Alcotest.(check int) "a fresh put is written through, a duplicate is not" 3 !writes;
  Alcotest.(check int) "still nothing in memory" 0 (table_size s);
  Alcotest.(check bool) "mem" true (Store.mem s c);
  let st = Store.stats s in
  Alcotest.(check int) "unique nodes are the backend's" 3 st.unique_nodes;
  Alcotest.(check int) "stored bytes are the backend's" 16 st.stored_bytes

(* Replacing one backend with another on an empty table moves nothing:
   a wrapper over the same storage sees every later read. *)
let test_replace_backend () =
  let s = Store.create () in
  let inner, inner_writes, _ = table_backend () in
  Store.set_backend s (Some inner);
  let h = Store.put s "node" in
  let reads = ref 0 in
  Store.set_backend s
    (Some
       { inner with
         Store.backend_name = "traced";
         backend_read =
           (fun h ->
             incr reads;
             inner.Store.backend_read h) });
  Alcotest.(check int) "no write on the swap" 1 !inner_writes;
  Alcotest.(check string) "read through the new backend" "node" (Store.get s h);
  Alcotest.(check int) "the wrapper served it" 1 !reads;
  Alcotest.(check (option string)) "named" (Some "traced") (Store.backend_name s)

let () =
  Alcotest.run "store"
    [ ( "basics",
        [ Alcotest.test_case "put/get" `Quick test_put_get;
          Alcotest.test_case "dedup on put" `Quick test_dedup_on_put;
          Alcotest.test_case "children/size" `Quick test_children_and_size;
          QCheck_alcotest.to_alcotest qcheck_content_addressing ] );
      ( "reachability",
        [ Alcotest.test_case "page sets" `Quick test_reachability;
          Alcotest.test_case "union walk" `Quick test_reachable_many_shares_walk;
          Alcotest.test_case "null/missing children" `Quick
            test_null_and_missing_children ] );
      ( "gc",
        [ Alcotest.test_case "collects garbage" `Quick test_gc;
          Alcotest.test_case "keeps roots" `Quick test_gc_keeps_all_roots ] );
      ( "integrity",
        [ Alcotest.test_case "tamper detection" `Quick test_corrupt_detection;
          Alcotest.test_case "observers" `Quick test_observers;
          Alcotest.test_case "reset counters" `Quick test_reset_counters;
          Alcotest.test_case "read gate" `Quick test_read_gate;
          Alcotest.test_case "truncate node" `Quick test_truncate_node ] );
      ( "scrub & repair",
        [ Alcotest.test_case "scrub finds damage" `Quick test_scrub_finds_damage;
          Alcotest.test_case "repair from replica" `Quick test_repair_from_replica;
          Alcotest.test_case "repair rejects corrupt replica" `Quick
            test_repair_rejects_corrupt_replica ] );
      ( "backend",
        [ Alcotest.test_case "attach moves the table" `Quick test_attach_moves_table;
          Alcotest.test_case "replace a backend" `Quick test_replace_backend ] );
      ( "concurrency",
        [ Alcotest.test_case "readers beside a 100k-node writer" `Quick
            test_readers_beside_writer ] ) ]

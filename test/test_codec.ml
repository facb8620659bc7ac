(* Wire writer/reader, RLP (Ethereum test vectors), and nibble paths. *)

module Wire = Siri_codec.Wire
module Rlp = Siri_codec.Rlp
module Nibbles = Siri_codec.Nibbles
module Hash = Siri_crypto.Hash
module Hex = Siri_crypto.Hex

(* --- wire ----------------------------------------------------------------- *)

let test_wire_roundtrip () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0x7F;
  Wire.Writer.u16 w 0xBEEF;
  Wire.Writer.u32 w 0xDEADBEEF;
  Wire.Writer.varint w 0;
  Wire.Writer.varint w 127;
  Wire.Writer.varint w 128;
  Wire.Writer.varint w 300;
  Wire.Writer.varint w 1_000_000_007;
  Wire.Writer.str w "hello";
  Wire.Writer.str w "";
  let h = Hash.of_string "x" in
  Wire.Writer.hash w h;
  Wire.Writer.raw w "tail";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check int) "u8" 0x7F (Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 0xBEEF (Wire.Reader.u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.Reader.u32 r);
  Alcotest.(check int) "varint 0" 0 (Wire.Reader.varint r);
  Alcotest.(check int) "varint 127" 127 (Wire.Reader.varint r);
  Alcotest.(check int) "varint 128" 128 (Wire.Reader.varint r);
  Alcotest.(check int) "varint 300" 300 (Wire.Reader.varint r);
  Alcotest.(check int) "varint big" 1_000_000_007 (Wire.Reader.varint r);
  Alcotest.(check string) "str" "hello" (Wire.Reader.str r);
  Alcotest.(check string) "empty str" "" (Wire.Reader.str r);
  Alcotest.(check bool) "hash" true (Hash.equal h (Wire.Reader.hash r));
  Alcotest.(check string) "raw" "tail" (Wire.Reader.raw r 4);
  Alcotest.(check bool) "at end" true (Wire.Reader.at_end r)

let test_wire_truncated () =
  let r = Wire.Reader.of_string "\x01" in
  ignore (Wire.Reader.u8 r);
  Alcotest.check_raises "u8 past end" Wire.Reader.Truncated (fun () ->
      ignore (Wire.Reader.u8 r))

let test_wire_bounds () =
  let w = Wire.Writer.create () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Wire.Writer.u8")
    (fun () -> Wire.Writer.u8 w 256);
  Alcotest.check_raises "u16 range" (Invalid_argument "Wire.Writer.u16")
    (fun () -> Wire.Writer.u16 w (-1));
  Alcotest.check_raises "varint negative"
    (Invalid_argument "Wire.Writer.varint: negative") (fun () ->
      Wire.Writer.varint w (-5))

let test_varint_malicious_continuation () =
  (* An endless run of continuation bytes must fail cleanly, not shift past
     the word size. *)
  let evil = String.make 64 '\x80' in
  Alcotest.check_raises "unbounded varint" Wire.Reader.Truncated (fun () ->
      ignore (Wire.Reader.varint (Wire.Reader.of_string evil)))

let test_varint_overflow_regression () =
  (* Shrunk QCheck counterexample: eight continuation bytes put the ninth
     chunk at shift 56, where 'a' (0x61) spills into the sign bit and used
     to come back as a negative length that crashed [raw] with
     Invalid_argument("String.sub").  Must be Truncated, nothing else. *)
  let input = "a\128\128\128\128\128\128\128\128aa" in
  let r = Wire.Reader.of_string input in
  Alcotest.(check int) "leading byte" 0x61 (Wire.Reader.u8 r);
  Alcotest.check_raises "overflowing varint" Wire.Reader.Truncated (fun () ->
      ignore (Wire.Reader.str r));
  (* The largest encodable int still round-trips. *)
  let w = Wire.Writer.create () in
  Wire.Writer.varint w max_int;
  Alcotest.(check int) "max_int roundtrip" max_int
    (Wire.Reader.varint (Wire.Reader.of_string (Wire.Writer.contents w)));
  (* Ten continuation chunks (shift 63) must also fail cleanly. *)
  Alcotest.check_raises "ten-byte varint" Wire.Reader.Truncated (fun () ->
      ignore (Wire.Reader.varint (Wire.Reader.of_string "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01")))

let qcheck_reader_total =
  (* Totality: every reader entry point, applied to arbitrary bytes, either
     returns a value or raises Truncated — no other exception may escape,
     and varint never fabricates a negative length. *)
  let entry_points : (string * (Wire.Reader.t -> unit)) list =
    [ ("u8", fun r -> ignore (Wire.Reader.u8 r));
      ("u16", fun r -> ignore (Wire.Reader.u16 r));
      ("u32", fun r -> ignore (Wire.Reader.u32 r));
      ("varint", fun r -> assert (Wire.Reader.varint r >= 0));
      ("str", fun r -> ignore (Wire.Reader.str r));
      ("hash", fun r -> ignore (Wire.Reader.hash r));
      ("raw", fun r -> ignore (Wire.Reader.raw r 10));
      ("skip", fun r -> Wire.Reader.skip r 10) ]
  in
  QCheck.Test.make ~name:"every reader entry point is total" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      List.for_all
        (fun (name, f) ->
          match f (Wire.Reader.of_string s) with
          | () -> true
          | exception Wire.Reader.Truncated -> true
          | exception e ->
              QCheck.Test.fail_reportf "%s raised %s on %S" name
                (Printexc.to_string e) s)
        entry_points)

let qcheck_reader_fuzz =
  (* Decoding arbitrary bytes must terminate with a value or a clean
     exception — never hang or corrupt memory. *)
  QCheck.Test.make ~name:"reader survives arbitrary bytes" ~count:300
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let r = Wire.Reader.of_string s in
      let attempt f = match f r with _ -> true | exception Wire.Reader.Truncated -> true in
      attempt Wire.Reader.varint
      && attempt Wire.Reader.str
      && attempt (fun r -> Wire.Reader.raw r 10)
      &&
      match Wire.Reader.hash (Wire.Reader.of_string s) with
      | _ -> true
      | exception Wire.Reader.Truncated -> true)

let qcheck_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w n;
      Wire.Reader.varint (Wire.Reader.of_string (Wire.Writer.contents w)) = n)

(* --- rlp ------------------------------------------------------------------- *)

(* Vectors from the Ethereum wiki / go-ethereum test suite. *)
let qcheck_exact_writer =
  (* The exact-size writes produce the bytes the growing writer appends. *)
  QCheck.Test.make ~name:"Exact writes = Writer bytes" ~count:300
    QCheck.(pair (int_bound max_int) (string_of_size Gen.(0 -- 300)))
    (fun (n, s) ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w n;
      Wire.Writer.str w s;
      Wire.Writer.raw w s;
      let expected = Wire.Writer.contents w in
      let b = Bytes.create (String.length expected) in
      let off = Wire.Exact.raw b (Wire.Exact.str b (Wire.Exact.varint b 0 n) s) s in
      off = Bytes.length b && Bytes.to_string b = expected)

(* --- split-key node views ------------------------------------------------------ *)

module Split_key = Siri_core.Split_key

(* The entry-array codec the view parser and the exact-size writer
   replaced, kept here as their oracle: [old_encode] is the bytes every
   split-key node had, [old_decode] the inputs it accepted. *)
type old_node =
  | Old_leaf of (string * string) array
  | Old_internal of int * (string * Hash.t) array

let old_encode ~salt node =
  let w = Wire.Writer.create () in
  let header tag = Wire.Writer.u8 w tag; Option.iter (Wire.Writer.str w) salt in
  (match node with
  | Old_leaf entries ->
      header 0;
      Wire.Writer.varint w (Array.length entries);
      Array.iter (fun (k, v) -> Wire.Writer.str w k; Wire.Writer.str w v) entries
  | Old_internal (level, refs) ->
      header 1;
      Wire.Writer.u8 w level;
      Wire.Writer.varint w (Array.length refs);
      Array.iter (fun (k, h) -> Wire.Writer.str w k; Wire.Writer.hash w h) refs);
  Wire.Writer.contents w

(* The old decoder read its [n] items with [Array.init], which allocates
   the whole array after the first item: on a flipped count it could ask
   for gigabytes before running out of bytes.  The oracle reads the same
   items in the same order into a list instead, so it refuses exactly the
   same inputs with [Truncated] and never allocates for absent items. *)
let read_items r f =
  let rec go n acc = if n = 0 then Array.of_list (List.rev acc) else go (n - 1) (f r :: acc) in
  go (Wire.Reader.varint r) []

let old_decode ~salted bytes =
  let r = Wire.Reader.of_string bytes in
  let tag = Wire.Reader.u8 r in
  if salted then ignore (Wire.Reader.str r);
  if tag = 0 then
    Old_leaf
      (read_items r (fun r ->
           let k = Wire.Reader.str r in
           let v = Wire.Reader.str r in
           (k, v)))
  else begin
    let level = Wire.Reader.u8 r in
    Old_internal
      ( level,
        read_items r (fun r ->
            let k = Wire.Reader.str r in
            let h = Wire.Reader.hash r in
            (k, h)) )
  end

let materialize v =
  if Split_key.is_leaf v then Old_leaf (Split_key.entries v)
  else Old_internal (Split_key.level v, Split_key.refs v)

(* Keys over a tiny alphabet, so many are prefixes of each other, with a
   byte >= 0x80 so the comparison must be unsigned, and long enough to
   span several 8-byte words. *)
let key_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'b'; '\xe9' ]) (frequency [ (2, 0 -- 6); (1, 7 -- 19) ]))

let node_gen =
  let open QCheck.Gen in
  let* salt = oneof [ return None; map Option.some (string_size (0 -- 5)) ] in
  (* Mostly a few items, some with values long enough for a two-byte
     length; now and then 128+ items, for a two-byte count. *)
  let* n, value_len =
    frequency [ (12, pair (0 -- 10) (return (frequency [ (3, 0 -- 20); (1, 126 -- 140) ]))); (1, pair (128 -- 132) (return (0 -- 2))) ]
  in
  let* keys = map (List.sort_uniq String.compare) (list_repeat n key_gen) in
  let leaf =
    map
      (fun vs -> Old_leaf (Array.of_list (List.combine keys vs)))
      (flatten_l (List.map (fun _ -> string_size value_len) keys))
  and internal =
    map2
      (fun level hs -> Old_internal (level, Array.of_list (List.combine keys hs)))
      (1 -- 255)
      (flatten_l (List.map (fun _ -> map Hash.of_raw (string_size (return Hash.size))) keys))
  in
  (* The count's varint is parsed alike for both kinds; only leaves (two
     bytes an item at least) take the two-byte count, keeping the
     every-prefix sweep short. *)
  let* node = if n >= 128 then leaf else oneof [ leaf; internal ] in
  return (salt, node)

let print_node (salt, node) =
  Printf.sprintf "salt=%s %S"
    (match salt with None -> "none" | Some s -> Printf.sprintf "%S" s)
    (old_encode ~salt node)

(* The parser refuses exactly the inputs the old decoder refused, with
   [Truncated], and otherwise materializes the same items. *)
let agrees ~salted bytes =
  let outcome f = match f () with x -> Some x | exception Wire.Reader.Truncated -> None in
  outcome (fun () -> old_decode ~salted bytes)
  = outcome (fun () -> materialize (Split_key.parse ~salted bytes))

let sign x = Int.compare x 0

let qcheck_views =
  QCheck.Test.make ~name:"view parser = old decoder, writer = old encoder" ~count:300
    (QCheck.make ~print:print_node node_gen)
    (fun (salt, node) ->
      let salted = Option.is_some salt in
      let bytes = old_encode ~salt node in
      let written, offsets =
        match node with
        | Old_leaf entries -> (Split_key.write_leaf ~salt entries, [||])
        | Old_internal (level, refs) -> Split_key.write_internal ~salt level refs
      in
      if written <> bytes then QCheck.Test.fail_reportf "writer bytes differ";
      let v = Split_key.parse ~salted bytes in
      if materialize v <> node then QCheck.Test.fail_reportf "view materializes other items";
      (* The writers' child offsets are where the view finds each ref's
         child hash. *)
      let child_offs v =
        if Split_key.is_leaf v then [||]
        else Array.init (Split_key.count v) (Split_key.child_off v)
      in
      if offsets <> child_offs v then QCheck.Test.fail_reportf "child offsets differ";
      (* Every item's byte range tiles the body, and re-writing the items
         spliced from the view gives the node back. *)
      let n = Split_key.count v in
      let items = List.init n (fun i -> Split_key.Raw (v, i)) in
      let size = List.fold_left (fun acc it -> acc + Split_key.item_size it) 0 items in
      let level = match node with Old_leaf _ -> 0 | Old_internal (l, _) -> l in
      if Split_key.write_rev ~salt ~level ~count:n ~size (List.rev items) <> (bytes, offsets)
      then QCheck.Test.fail_reportf "spliced node differs";
      (* compare_key, child_for and find_entry against String.compare. *)
      let keys = match node with Old_leaf e -> Array.map fst e | Old_internal (_, r) -> Array.map fst r in
      let probes =
        Array.to_list keys
        @ List.concat_map
            (fun k ->
              [ k ^ "a"; k ^ "\xff"; (if k = "" then "" else String.sub k 0 (String.length k - 1)) ]
              (* the key with one byte raised or lowered, at every offset *)
              @ List.concat
                  (List.init (String.length k) (fun j ->
                       List.map
                         (fun d ->
                           String.mapi (fun i c -> if i = j then Char.chr ((Char.code c + d) land 0xff) else c) k)
                         [ 1; 255 ])))
            (Array.to_list keys)
        @ [ ""; "b"; "\xe9\xe9\xe9\xe9\xe9\xe9\xe9" ]
      in
      List.iter
        (fun p ->
          Array.iteri
            (fun i k ->
              if sign (Split_key.compare_key p v i) <> sign (String.compare p k) then
                QCheck.Test.fail_reportf "compare_key %S %S" p k)
            keys;
          let first_ge =
            let rec go i = if i < n && String.compare keys.(i) p < 0 then go (i + 1) else i in
            go 0
          in
          if Split_key.child_for v p <> first_ge then QCheck.Test.fail_reportf "child_for %S" p;
          match node with
          | Old_leaf entries ->
              if Split_key.find_entry v p <> List.assoc_opt p (Array.to_list entries) then
                QCheck.Test.fail_reportf "find_entry %S" p
          | Old_internal _ -> ())
        probes;
      (* Every truncated prefix, and single-byte flips at every offset. *)
      let len = String.length bytes in
      for cut = 0 to len - 1 do
        if not (agrees ~salted (String.sub bytes 0 cut)) then
          QCheck.Test.fail_reportf "prefix of %d bytes" cut
      done;
      let b = Bytes.of_string bytes in
      for i = 0 to len - 1 do
        let mask = [| 0x01; 0x80; 0xff |].(i mod 3) in
        Bytes.set b i (Char.chr (Char.code bytes.[i] lxor mask));
        if not (agrees ~salted (Bytes.to_string b)) then
          QCheck.Test.fail_reportf "flip 0x%02x at %d" mask i;
        Bytes.set b i bytes.[i]
      done;
      (* The other layout's parser on these bytes agrees with the other
         layout's old decoder too. *)
      agrees ~salted:(not salted) bytes)

let test_view_refuses_absurd_count () =
  (* A count far beyond the bytes left — 2^20 items, or one past the
     largest array — is refused before the offset table is allocated, for
     both layouts and both node kinds. *)
  List.iter
    (fun count ->
      List.iter
        (fun (tag, level, item) ->
          List.iter
            (fun salted ->
              let bytes = tag ^ (if salted then "\000" else "") ^ level ^ count ^ item in
              let before = Gc.allocated_bytes () in
              (match Split_key.parse ~salted bytes with
              | _ -> Alcotest.failf "accepted %S" bytes
              | exception Wire.Reader.Truncated -> ());
              let spent = Gc.allocated_bytes () -. before in
              if spent > 4096. then Alcotest.failf "allocated %.0f bytes on %S" spent bytes)
            [ true; false ])
        [ ("\000", "", "\001k\001v"); ("\001", "\001", "\001k" ^ String.make 32 'h') ])
    [ "\x80\x80\x40"; "\xff\xff\xff\xff\xff\xff\xff\x3f" ]

let rlp_vectors =
  [ (Rlp.String "dog", "83646f67");
    (Rlp.List [ Rlp.String "cat"; Rlp.String "dog" ], "c88363617483646f67");
    (Rlp.String "", "80");
    (Rlp.List [], "c0");
    (Rlp.of_int 0, "80");
    (Rlp.of_int 15, "0f");
    (Rlp.of_int 1024, "820400");
    ( Rlp.List [ Rlp.List []; Rlp.List [ Rlp.List [] ]; Rlp.List [ Rlp.List []; Rlp.List [ Rlp.List [] ] ] ],
      "c7c0c1c0c3c0c1c0" );
    ( Rlp.String "Lorem ipsum dolor sit amet, consectetur adipisicing elit",
      "b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365637465747572206164697069736963696e6720656c6974" ) ]

let test_rlp_encode () =
  List.iter
    (fun (item, hex) ->
      Alcotest.(check string) hex hex (Hex.encode (Rlp.encode item)))
    rlp_vectors

let test_rlp_decode () =
  List.iter
    (fun (item, hex) ->
      Alcotest.(check bool) ("decode " ^ hex) true
        (Rlp.decode (Hex.decode hex) = item))
    rlp_vectors

let test_rlp_single_bytes () =
  (* Bytes < 0x80 encode as themselves. *)
  Alcotest.(check string) "byte 0x42" "42" (Hex.encode (Rlp.encode (Rlp.String "\x42")));
  (* 0x80..0xFF need a length prefix. *)
  Alcotest.(check string) "byte 0x80" "8180" (Hex.encode (Rlp.encode (Rlp.String "\x80")))

let test_rlp_rejects_noncanonical () =
  let raises hex =
    match Rlp.decode (Hex.decode hex) with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "0x8100 (single byte long form)" true (raises "8100");
  Alcotest.(check bool) "trailing bytes" true (raises "83646f6700");
  Alcotest.(check bool) "truncated" true (raises "83646f")

let test_rlp_int () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Rlp.to_int (Rlp.of_int n)))
    [ 0; 1; 127; 128; 255; 256; 65535; 65536; 1_000_000_000 ]

let rlp_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then map (fun s -> Rlp.String s) (string_size (0 -- 40))
          else
            frequency
              [ (2, map (fun s -> Rlp.String s) (string_size (0 -- 40)));
                (1, map (fun l -> Rlp.List l) (list_size (0 -- 4) (self (n / 2)))) ])
        n)

let qcheck_rlp_roundtrip =
  QCheck.Test.make ~name:"rlp roundtrip" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" Rlp.pp) rlp_gen)
    (fun item -> Rlp.decode (Rlp.encode item) = item)

(* --- nibbles ----------------------------------------------------------------- *)

let test_nibbles_of_key () =
  let n = Nibbles.of_key "\x3a\xf0" in
  Alcotest.(check int) "length" 4 (Nibbles.length n);
  Alcotest.(check (list int)) "values" [ 3; 10; 15; 0 ]
    (List.init 4 (Nibbles.get n));
  Alcotest.(check string) "roundtrip" "\x3a\xf0" (Nibbles.to_key n)

let test_nibbles_ops () =
  let a = Nibbles.of_key "abc" and b = Nibbles.of_key "abd" in
  Alcotest.(check int) "common prefix" 5 (Nibbles.common_prefix a b);
  Alcotest.(check bool) "drop+sub" true
    (Nibbles.equal (Nibbles.drop a 2) (Nibbles.sub a 2 4));
  Alcotest.(check bool) "concat" true
    (Nibbles.equal a (Nibbles.concat (Nibbles.sub a 0 3) (Nibbles.drop a 3)));
  Alcotest.(check int) "cons" 7 (Nibbles.get (Nibbles.cons 7 a) 0)

let test_compact_encoding () =
  List.iter
    (fun (leaf, key, drop) ->
      let path = Nibbles.drop (Nibbles.of_key key) drop in
      let leaf', path' = Nibbles.compact_decode (Nibbles.compact_encode ~leaf path) in
      Alcotest.(check bool) "leaf flag" leaf leaf';
      Alcotest.(check bool) "path" true (Nibbles.equal path path'))
    [ (true, "dog", 0); (false, "dog", 0); (true, "dog", 1); (false, "dog", 1);
      (true, "", 0); (false, "x", 1); (true, "longer-key-here", 3) ]

let qcheck_compact =
  QCheck.Test.make ~name:"compact encode/decode" ~count:300
    QCheck.(pair bool (pair small_string (int_bound 5)))
    (fun (leaf, (key, d)) ->
      let full = Nibbles.of_key key in
      let d = min d (Nibbles.length full) in
      let path = Nibbles.drop full d in
      let leaf', path' =
        Nibbles.compact_decode (Nibbles.compact_encode ~leaf path)
      in
      leaf = leaf' && Nibbles.equal path path')

let () =
  Alcotest.run "codec"
    [ ( "wire",
        [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "truncated" `Quick test_wire_truncated;
          Alcotest.test_case "bounds" `Quick test_wire_bounds;
          Alcotest.test_case "malicious varint" `Quick test_varint_malicious_continuation;
          Alcotest.test_case "varint overflow regression" `Quick
            test_varint_overflow_regression;
          QCheck_alcotest.to_alcotest qcheck_reader_fuzz;
          QCheck_alcotest.to_alcotest qcheck_reader_total;
          QCheck_alcotest.to_alcotest qcheck_varint;
          QCheck_alcotest.to_alcotest qcheck_exact_writer ] );
      ( "split-key views",
        [ Alcotest.test_case "absurd item count refused" `Quick
            test_view_refuses_absurd_count;
          QCheck_alcotest.to_alcotest qcheck_views ] );
      ( "rlp",
        [ Alcotest.test_case "encode vectors" `Quick test_rlp_encode;
          Alcotest.test_case "decode vectors" `Quick test_rlp_decode;
          Alcotest.test_case "single bytes" `Quick test_rlp_single_bytes;
          Alcotest.test_case "non-canonical rejected" `Quick
            test_rlp_rejects_noncanonical;
          Alcotest.test_case "int scalars" `Quick test_rlp_int;
          QCheck_alcotest.to_alcotest qcheck_rlp_roundtrip ] );
      ( "nibbles",
        [ Alcotest.test_case "of_key/get" `Quick test_nibbles_of_key;
          Alcotest.test_case "slicing ops" `Quick test_nibbles_ops;
          Alcotest.test_case "compact encoding" `Quick test_compact_encoding;
          QCheck_alcotest.to_alcotest qcheck_compact ] ) ]

(* SHA-256 against NIST FIPS 180-4 vectors, streaming equivalence, and the
   Hash / Hex utility modules. *)

module Sha256 = Siri_crypto.Sha256
module Hash = Siri_crypto.Hash
module Hex = Siri_crypto.Hex

let check_digest msg input expected_hex =
  Alcotest.(check string) msg expected_hex (Sha256.to_hex (Sha256.digest_string input))

(* Official short/long message test vectors. *)
let nist_vectors =
  [ ( "",
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" );
    ( "abc",
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" );
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
       ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" ) ]

let test_nist () =
  List.iter (fun (input, hex) -> check_digest input input hex) nist_vectors

let test_million_a () =
  check_digest "10^6 x a"
    (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_streaming_chunks () =
  (* Feeding in arbitrary chunk sizes equals one-shot hashing. *)
  let data = String.init 10_000 (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let oneshot = Sha256.digest_string data in
  List.iter
    (fun sizes ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      let i = ref 0 in
      while !pos < String.length data do
        let k = List.nth sizes (!i mod List.length sizes) in
        let len = min k (String.length data - !pos) in
        Sha256.feed_string ctx ~off:!pos ~len data;
        pos := !pos + len;
        incr i
      done;
      Alcotest.(check string) "streamed = one-shot" (Sha256.to_hex oneshot)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ [ 1 ]; [ 63 ]; [ 64 ]; [ 65 ]; [ 1; 64; 3; 1000 ]; [ 7; 13 ] ]

let test_boundary_lengths () =
  (* Padding edge cases: lengths around the 55/56/64-byte boundaries. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed_string ctx (String.make 1 c)) s;
      Alcotest.(check string)
        (Printf.sprintf "len %d" n)
        (Sha256.to_hex (Sha256.digest_string s))
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let qcheck_streaming =
  QCheck.Test.make ~name:"split-anywhere streaming equivalence" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 300)) (int_bound 299))
    (fun (s, cut) ->
      let cut = min cut (String.length s) in
      let ctx = Sha256.init () in
      Sha256.feed_string ctx ~off:0 ~len:cut s;
      Sha256.feed_string ctx ~off:cut ~len:(String.length s - cut) s;
      Sha256.finalize ctx = Sha256.digest_string s)

let test_hash_basics () =
  let h = Hash.of_string "hello" in
  Alcotest.(check int) "size" 32 (String.length (Hash.to_raw h));
  Alcotest.(check bool) "equal self" true (Hash.equal h (Hash.of_string "hello"));
  Alcotest.(check bool) "differs" false (Hash.equal h (Hash.of_string "hellp"));
  Alcotest.(check string) "hex roundtrip" (Hash.to_hex h)
    (Hash.to_hex (Hash.of_hex (Hash.to_hex h)));
  Alcotest.(check int) "short is 8 chars" 8 (String.length (Hash.short h));
  Alcotest.(check bool) "null is null" true (Hash.is_null Hash.null);
  Alcotest.(check bool) "h is not null" false (Hash.is_null h)

let test_hash_of_raw_rejects () =
  Alcotest.check_raises "bad length"
    (Invalid_argument "Hash.of_raw: expected 32 bytes, got 3") (fun () ->
      ignore (Hash.of_raw "abc"))

let test_hash_containers () =
  let hs = List.init 100 (fun i -> Hash.of_string (string_of_int i)) in
  let set = List.fold_left (fun s h -> Hash.Set.add h s) Hash.Set.empty hs in
  Alcotest.(check int) "set cardinal" 100 (Hash.Set.cardinal set);
  let tbl = Hash.Table.create 16 in
  List.iteri (fun i h -> Hash.Table.replace tbl h i) hs;
  Alcotest.(check int) "table length" 100 (Hash.Table.length tbl);
  List.iteri
    (fun i h -> Alcotest.(check int) "table lookup" i (Hash.Table.find tbl h))
    hs

let test_hex () =
  Alcotest.(check string) "encode" "00ff10" (Hex.encode "\x00\xff\x10");
  Alcotest.(check string) "decode" "\x00\xff\x10" (Hex.decode "00ff10");
  Alcotest.(check string) "decode upper" "\xab" (Hex.decode "AB");
  Alcotest.(check bool) "is_hex yes" true (Hex.is_hex "deadBEEF");
  Alcotest.(check bool) "is_hex odd" false (Hex.is_hex "abc");
  Alcotest.(check bool) "is_hex bad char" false (Hex.is_hex "zz");
  Alcotest.check_raises "decode odd" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Hex.decode "abc"))

let qcheck_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 QCheck.string (fun s ->
      Hex.decode (Hex.encode s) = s)

(* Kernel differential: the dispatched compression kernel (SHA-NI on hosts
   that have it) against the portable C rounds, and both against NIST where
   vectors exist.  On a host without SHA-NI both sides run the portable
   kernel and only the NIST checks bite. *)
let portable = Sha256.For_testing.portable_digest

let agree msg s expected =
  Alcotest.(check string) msg (Sha256.to_hex expected) (Sha256.to_hex (portable s))

let test_kernel_nist () =
  List.iter
    (fun (input, hex) ->
      Alcotest.(check string) ("portable " ^ input) hex
        (Sha256.to_hex (portable input));
      agree input input (Sha256.digest_string input))
    nist_vectors;
  let a = String.make 1_000_000 'a' in
  Alcotest.(check string) "portable 10^6 x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (portable a));
  agree "10^6 x a" a (Sha256.digest_string a)

let kernel_data = String.init 1200 (fun i -> Char.chr ((i * 167 + i / 7) land 0xFF))

let test_kernel_lengths () =
  for n = 0 to 1100 do
    let s = String.sub kernel_data 0 n in
    agree (Printf.sprintf "len %d" n) s (Sha256.digest_string s)
  done

let test_kernel_unaligned () =
  List.iter
    (fun len ->
      for off = 0 to 7 do
        let s = String.sub kernel_data off len in
        let msg = Printf.sprintf "off %d len %d" off len in
        agree msg s (Sha256.digest_substring kernel_data ~off ~len);
        agree ("concat " ^ msg) ("head" ^ s)
          (Sha256.digest_concat_sub "head" kernel_data ~off ~len)
      done)
    [ 0; 1; 55; 56; 63; 64; 65; 128; 200; 1000 ]

let test_kernel_streamed () =
  let s = String.sub kernel_data 0 300 in
  let around = List.concat_map (fun b -> List.init 9 (fun d -> b - 4 + d)) [ 64; 128; 192 ] in
  let expected = portable s in
  List.iter
    (fun c1 ->
      List.iter
        (fun c2 ->
          if c1 <= c2 then begin
            let ctx = Sha256.init () in
            Sha256.feed_string ctx ~off:0 ~len:c1 s;
            Sha256.feed_string ctx ~off:c1 ~len:(c2 - c1) s;
            Sha256.feed_string ctx ~off:c2 ~len:(String.length s - c2) s;
            Alcotest.(check string)
              (Printf.sprintf "split %d/%d" c1 c2)
              (Sha256.to_hex expected)
              (Sha256.to_hex (Sha256.finalize ctx))
          end)
        (0 :: around))
    (0 :: around)

(* Concurrent one-shot digests from systhreads sharing one domain: the
   scratch context must never be shared mid-digest.  (Regression: a
   domain-local context used in place let a preempted thread's reset and
   feeds interleave with another's — the server's journal frames then
   carried digests of neither payload, and a SIGKILL-restart refused the
   journal as corrupt.) *)
let test_threaded_digests () =
  let inputs =
    Array.init 64 (fun i -> String.make (50 + (137 * i mod 4000)) (Char.chr (33 + (i mod 90))))
  in
  let expected = Array.map Sha256.digest_string inputs in
  let bad = Atomic.make 0 in
  let worker _ =
    for round = 0 to 400 do
      let i = (round * 31) mod Array.length inputs in
      if not (String.equal (Sha256.digest_string inputs.(i)) expected.(i))
      then Atomic.incr bad
    done
  in
  let threads = List.init 8 (fun w -> Thread.create worker w) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no interleaved digests" 0 (Atomic.get bad)

let () =
  Alcotest.run "crypto"
    [ ( "sha256",
        [ Alcotest.test_case "NIST vectors" `Quick test_nist;
          Alcotest.test_case "million 'a'" `Quick test_million_a;
          Alcotest.test_case "streaming chunk sizes" `Quick test_streaming_chunks;
          Alcotest.test_case "padding boundaries" `Quick test_boundary_lengths;
          Alcotest.test_case "threaded one-shot digests" `Quick
            test_threaded_digests;
          QCheck_alcotest.to_alcotest qcheck_streaming ] );
      ( "kernel",
        [ Alcotest.test_case "NIST vectors" `Quick test_kernel_nist;
          Alcotest.test_case "lengths 0-1100" `Quick test_kernel_lengths;
          Alcotest.test_case "unaligned offsets" `Quick test_kernel_unaligned;
          Alcotest.test_case "streamed splits" `Quick test_kernel_streamed ] );
      ( "hash",
        [ Alcotest.test_case "basics" `Quick test_hash_basics;
          Alcotest.test_case "of_raw validation" `Quick test_hash_of_raw_rejects;
          Alcotest.test_case "set/table" `Quick test_hash_containers ] );
      ( "hex",
        [ Alcotest.test_case "encode/decode" `Quick test_hex;
          QCheck_alcotest.to_alcotest qcheck_hex_roundtrip ] ) ]

(* A miniature blockchain ledger on the Merkle Patricia Trie — the paper's
   motivating application #1 (Section 1: crypto-currency wallets, Ethereum).

   Run with:  dune exec examples/blockchain_ledger.exe

   Each block carries a batch of RLP-encoded transactions; the MPT indexes
   transaction-hash -> transaction exactly as Ethereum does, and the block
   header records the trie root.  A light client verifies inclusion with a
   Merkle proof; a tampering full node is caught immediately. *)

open Siri_core
module Store = Siri_store.Store
module Mpt = Siri_mpt.Mpt
module Hash = Siri_crypto.Hash
module Ethereum = Siri_workload.Ethereum

type header = { number : int; tx_root : Hash.t; parent : Hash.t }

let header_hash h =
  Hash.of_string
    (Printf.sprintf "%d|%s|%s" h.number (Hash.to_raw h.tx_root)
       (Hash.to_raw h.parent))

let () =
  let store = Store.create () in

  (* Mine 20 blocks of 100 synthetic transactions each. *)
  let blocks = Ethereum.blocks ~txs_per_block:100 ~count:20 () in
  let chain, tries =
    List.fold_left
      (fun (chain, tries) block ->
        let trie = Mpt.of_entries store (Ethereum.entries_of_block block) in
        let parent =
          match chain with [] -> Hash.null | h :: _ -> header_hash h
        in
        let header =
          { number = block.Ethereum.number; tx_root = Mpt.root trie; parent }
        in
        (header :: chain, trie :: tries))
      ([], []) blocks
  in
  let head = List.hd chain in
  Printf.printf "chain head : block %d, header %s\n" head.number
    (Hash.short (header_hash head));
  Printf.printf "tx tries   : %d blocks, %d total transactions\n"
    (List.length chain)
    (List.fold_left (fun acc t -> acc + (Mpt.generic t).Generic.cardinal ()) 0 tries);

  (* A light client holds only the headers.  To check that a transaction is
     in block 7 it asks a full node for a proof against that tx_root. *)
  let block7 = List.nth blocks 7 in
  let trie7 = List.nth tries (List.length tries - 1 - 7) in
  let some_tx = List.nth block7.Ethereum.txs 42 in
  let prove trie key = (Mpt.generic trie).Generic.prove key in
  (* The light client's check needs no store: only the root and the
     index kind's decoder. *)
  let verify ~root proof = (Mpt.generic (Mpt.empty store)).Generic.verify ~root proof in
  let proof = prove trie7 some_tx.Ethereum.hash_hex in
  let trusted_root = (List.nth (List.rev chain) 7).tx_root in
  Printf.printf "inclusion  : tx %s... in block 7: %b (proof %d bytes)\n"
    (String.sub some_tx.Ethereum.hash_hex 0 12)
    (verify ~root:trusted_root proof)
    (Proof.size_bytes proof);

  (* A malicious full node rewrites a stored trie node (say, to redirect a
     payment).  The next proof it produces no longer matches the root the
     light client trusts. *)
  let victim_node = Hash.of_string (List.nth proof.Proof.nodes 1) in
  Store.corrupt store victim_node;
  let accepted =
    (* The corrupted node may not even decode; either way the client rejects. *)
    match prove trie7 some_tx.Ethereum.hash_hex with
    | forged -> verify ~root:trusted_root forged
    | exception _ -> false
  in
  Printf.printf "tampering  : forged proof accepted: %b (expected false)\n"
    accepted;
  (match Store.get_verified store victim_node with
  | Ok _ -> Printf.printf "tampering  : store scan missed it?!\n"
  | Error (`Tampered h) ->
      Printf.printf "tampering  : store scan flags node %s\n" (Hash.short h));

  (* Absence proofs: prove a transaction is NOT in a block (block 8's trie
     is still pristine). *)
  let trie8 = List.nth tries (List.length tries - 1 - 8) in
  let root8 = (List.nth (List.rev chain) 8).tx_root in
  let ghost = String.make 64 '0' in
  let absent = prove trie8 ghost in
  Printf.printf "absence    : claims %s, verifies: %b\n"
    (match absent.Proof.value with None -> "absent" | Some _ -> "present")
    (verify ~root:root8 absent)

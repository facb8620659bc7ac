(* A verifiable audit log — persistence + authenticated range scans.

   Run with:  dune exec examples/verifiable_audit_log.exe

   An auditable system appends timestamped events to a POS-Tree keyed by
   (timestamp, sequence).  Because keys are time-ordered, "all events of
   day N" is a range scan — and with a range proof, an external auditor who
   only knows the published root digest can verify they received EVERY
   event of that day, unmodified, with nothing hidden.  The store persists
   to disk and survives restarts. *)

open Siri_core
module Store = Siri_store.Store
module Pos = Siri_pos.Pos_tree
module Hash = Siri_crypto.Hash

let cfg = Pos.config ~leaf_target:1024 ()
let store_path = Filename.concat (Filename.get_temp_dir_name ()) "audit-log.siri"

let event_key ~day ~seq = Printf.sprintf "2026-07-%02dT%06d" day seq

let () =
  (* Day 1..5: append events, publishing a root digest per day. *)
  let store = Store.create () in
  let rng = Rng.create 99 in
  let log = ref (Pos.empty store cfg) in
  let published = ref [] in
  for day = 1 to 5 do
    let events =
      List.init 200 (fun seq ->
          Kv.Put
            ( event_key ~day ~seq,
              Printf.sprintf "user=%s action=%s" (Rng.string_alnum rng 6)
                (Rng.pick rng [| "login"; "read"; "write"; "delete" |]) ))
    in
    log := Pos.batch !log events;
    published := (day, Pos.root !log) :: !published
  done;
  let day5_root = Pos.root !log in
  Printf.printf "log        : %d events over 5 days, root %s\n"
    ((Pos.generic !log).Generic.cardinal ()) (Hash.short day5_root);

  (* Persist and "restart". *)
  Store.save store store_path;
  let store' = Store.load store_path in
  let log' = Pos.of_root store' cfg day5_root in
  Printf.printf "restart    : reloaded %s (%d events intact)\n"
    (Filename.basename store_path) ((Pos.generic log').Generic.cardinal ());

  (* The auditor asks for day 3.  The operator answers with a range proof;
     the auditor verifies against the digest published at day 5. *)
  let lo = Some (event_key ~day:3 ~seq:0) in
  let hi = Some (event_key ~day:3 ~seq:999_999) in
  let proof = Pos.prove_range log' ~lo ~hi in
  Printf.printf "audit      : day 3 = %d events, proof %s, verifies: %b\n"
    (List.length proof.Range_proof.entries)
    (Siri_benchkit.Table.fmt_bytes (Range_proof.size_bytes proof))
    (Pos.verify_range_proof ~root:day5_root proof);

  (* A dishonest operator who hides one event cannot produce a valid proof. *)
  let censored =
    { proof with Range_proof.entries = List.tl proof.Range_proof.entries }
  in
  Printf.printf "censorship : proof with one event hidden verifies: %b\n"
    (Pos.verify_range_proof ~root:day5_root censored);

  (* Nor can one who back-dates an extra event. *)
  let forged =
    { proof with
      Range_proof.entries =
        (event_key ~day:3 ~seq:1_000, "user=mallory action=admin")
        :: proof.Range_proof.entries }
  in
  Printf.printf "forgery    : proof with an injected event verifies: %b\n"
    (Pos.verify_range_proof ~root:day5_root forged);

  (* Time travel: the digest published on day 2 still answers day-2 audits,
     even though the log has grown since. *)
  let day2_root = List.assoc 2 (List.rev !published) in
  let day2 = Pos.of_root store' cfg day2_root in
  let p2 =
    Pos.prove_range day2
      ~lo:(Some (event_key ~day:2 ~seq:0))
      ~hi:(Some (event_key ~day:2 ~seq:999_999))
  in
  Printf.printf "history    : day-2 audit against day-2 digest: %d events, %b\n"
    (List.length p2.Range_proof.entries)
    (Pos.verify_range_proof ~root:day2_root p2);
  Sys.remove store_path

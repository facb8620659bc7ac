(* Host facts recorded next to the numbers, and the small filesystem and
   /proc helpers the benchmark needs. *)

let now = Unix.gettimeofday

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun n -> remove_tree (Filename.concat path n))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Unix.mkdir dst 0o755;
    Array.iter
      (fun n -> copy_tree (Filename.concat src n) (Filename.concat dst n))
      (Sys.readdir src)
  end
  else
    Out_channel.with_open_bin dst (fun oc ->
        Out_channel.output_string oc
          (In_channel.with_open_bin src In_channel.input_all))

let rec tree_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc n -> acc + tree_bytes (Filename.concat path n))
        0
        (try Sys.readdir path with Sys_error _ -> [||])
  | st -> st.Unix.st_size

(* Peak resident set of a live process, in KiB; 0 once it is gone. *)
let vm_hwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> kb
          | None -> acc)
        0 (String.split_on_char '\n' s)

(* Clock ticks (1/100 s) the hypervisor has taken from this machine's
   CPUs so far: the steal field of /proc/stat's "cpu" line; 0 where the
   kernel does not report it. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> 0
  | None -> 0
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value ~default:0 (int_of_string_opt steal)
      | _ -> 0)

(* Filesystem type of the mount holding [path] (longest mount-point prefix
   in /proc/mounts). *)
let fs_type path =
  let path = try Unix.realpath path with Unix.Unix_error _ -> path in
  let under mp =
    mp = "/" || path = mp
    || String.length path > String.length mp
       && String.sub path 0 (String.length mp) = mp
       && path.[String.length mp] = '/'
  in
  match In_channel.with_open_text "/proc/mounts" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | s ->
      snd
        (List.fold_left
           (fun (best, fs) line ->
             match String.split_on_char ' ' line with
             | _ :: mp :: ty :: _ when under mp && String.length mp >= best ->
                 (String.length mp, ty)
             | _ -> (best, fs))
           (-1, "unknown")
           (String.split_on_char '\n' s))

(* Median cost of a 4 KiB append plus fsync in [dir], in microseconds. *)
let fsync_us dir =
  let path = Filename.concat dir "fsync-probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let buf = Bytes.make 4096 'x' in
  let samples = Stat.create () in
  for _ = 1 to 32 do
    let t0 = now () in
    ignore (Unix.write fd buf 0 4096 : int);
    Unix.fsync fd;
    Stat.add samples ((now () -. t0) *. 1e6)
  done;
  Unix.close fd;
  Sys.remove path;
  Stat.median samples

(* SHA-256 throughput over 1 KiB buffers through [Hash.of_string]. *)
let sha256_mb_per_s () =
  let buf = String.make 1024 'h' in
  let t0 = now () in
  let n = ref 0 in
  while now () -. t0 < 0.2 do
    for _ = 1 to 64 do ignore (Siri_crypto.Hash.of_string buf) done;
    n := !n + 64
  done;
  float_of_int (!n * 1024) /. (now () -. t0) /. 1e6

module For_testing = struct
  type effect =
    | Mkdir of string
    | Create of string
    | Flush of string * int
    | Fsync of string
    | Fsync_dir of string
    | Rename of string * string
    | Truncate of string * int
    | Remove of string

  let recorder : (Mutex.t * effect list ref) option Atomic.t = Atomic.make None

  let record f =
    let trace = ref [] in
    let saved = Atomic.exchange recorder (Some (Mutex.create (), trace)) in
    let v = Fun.protect ~finally:(fun () -> Atomic.set recorder saved) f in
    (v, List.rev !trace)

  let fsync_fault : string option Atomic.t = Atomic.make None
  let fail_next_fsync path = Atomic.set fsync_fault (Some path)
end

open For_testing

(* Off the recorder, an effect costs this one [Atomic.get]. *)
let note e =
  match Atomic.get recorder with
  | None -> ()
  | Some (m, trace) -> Mutex.protect m (fun () -> trace := e :: !trace)

(* A file's helper pthread for overlapped fsyncs (fsync_stubs.c). *)
type syncer

external syncer_start : Unix.file_descr -> syncer = "siri_io_syncer_start"
external syncer_ask : syncer -> unit = "siri_io_syncer_ask"
external syncer_wait : syncer -> string -> unit = "siri_io_syncer_wait"
external syncer_stop : syncer -> unit = "siri_io_syncer_stop"

type file = { path : string; oc : out_channel; mutable syncer : syncer option }

let open_file flags path =
  let fd = Unix.openfile path (Unix.O_WRONLY :: flags) 0o644 in
  { path; oc = Unix.out_channel_of_descr fd; syncer = None }

let open_append = open_file [ Unix.O_APPEND ]
let output f s = output_string f.oc s

let close f =
  Option.iter syncer_stop f.syncer;
  f.syncer <- None;
  close_out_noerr f.oc

let flush f =
  Stdlib.flush f.oc;
  if Option.is_some (Atomic.get recorder) then
    note (Flush (f.path, out_channel_length f.oc))

(* Off the fault switch, this costs one [Atomic.get]. *)
let injected path =
  match Atomic.get fsync_fault with
  | Some p as armed when p = path ->
      Atomic.compare_and_set fsync_fault armed None
  | _ -> false

let eio path = Unix.Unix_error (Unix.EIO, "fsync", path)

let fsync_fd path fd =
  if injected path then raise (eio path);
  Unix.fsync fd;
  note (Fsync path)

let fsync f = fsync_fd f.path (Unix.descr_of_out_channel f.oc)

let fsync_begin f =
  if injected f.path then fun () -> raise (eio f.path)
  else begin
    let s =
      match f.syncer with
      | Some s -> s
      | None ->
          let s = syncer_start (Unix.descr_of_out_channel f.oc) in
          f.syncer <- Some s;
          s
    in
    syncer_ask s;
    fun () ->
      syncer_wait s f.path;
      note (Fsync f.path)
  end

(* Errors are swallowed: some filesystems refuse fsync on directories,
   and a failed directory sync weakens durability, never integrity. *)
let fsync_dir dir =
  (match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd);
  note (Fsync_dir dir)

let rec mkdir ~sync path =
  if path <> "" && path <> "/" && not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    mkdir ~sync parent;
    match Unix.mkdir path 0o755 with
    | () ->
        note (Mkdir path);
        if sync then fsync_dir parent
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rename ~sync src dst =
  Unix.rename src dst;
  note (Rename (src, dst));
  if sync then fsync_dir (Filename.dirname dst)

let truncate path len =
  Unix.truncate path len;
  note (Truncate (path, len))

let rec remove path =
  match
    if Sys.is_directory path then begin
      Array.iter (fun name -> remove (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  with
  | () -> note (Remove path)
  | exception Sys_error _ -> ()

let sweep dir stale =
  Array.iter
    (fun name -> if stale name then remove (Filename.concat dir name))
    (try Sys.readdir dir with Sys_error _ -> [||])

(* Create (or truncate), write, flush, fsync and close: the directory
   entry is the caller's. *)
let write_out ~sync path write =
  let f = open_file [ Unix.O_CREAT; Unix.O_TRUNC ] path in
  note (Create path);
  match
    write f.oc;
    flush f;
    if sync then fsync f
  with
  | () -> close_out f.oc
  | exception e ->
      close f;
      raise e

let create ~sync path write =
  write_out ~sync path write;
  if sync then fsync_dir (Filename.dirname path)

let tmp_counter = Atomic.make 0

let replace ~sync path write =
  let n = Atomic.fetch_and_add tmp_counter 1 + 1 in
  let tmp = Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) n in
  match
    write_out ~sync tmp write;
    rename ~sync tmp path
  with
  | () -> ()
  | exception e ->
      remove tmp;
      raise e

(* [<base>.tmp.<pid>.<counter>]. *)
let is_tmp ?base name =
  match List.rev (String.split_on_char '.' name) with
  | _ :: _ :: "tmp" :: (_ :: _ as rest) ->
      let owner = String.concat "." (List.rev rest) in
      Option.fold ~none:true ~some:(String.equal owner) base
  | _ -> false

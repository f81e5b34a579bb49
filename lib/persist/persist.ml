(** Durability directory: generation-paired checkpoints and WALs. *)

module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg
module Engine = Rxv_core.Engine
module Base_update = Rxv_core.Base_update

type origin = {
  o_client : string;
  o_seq : int;
  o_commit : int;
  o_reports : int;
}

type session = {
  sess_client : string;
  sess_seq : int;
  sess_commit : int;
  sess_reports : int;
  sess_delta : int;
}

type record =
  | Group of {
      epoch : int;
      origin : origin option;
      group : Group_update.t;
    }
  | Sessions of { last_commit : int; sessions : session list }
  | Epoch of { epoch : int; boundary : int }

type tap = {
  on_group : string -> unit;
  on_rotate : generation:int -> base:int -> unit;
  on_reset : generation:int -> base:int -> unit;
}

type t = {
  t_dir : string;
  t_sync : Wal.sync_policy;
  mutable generation : int;
  mutable writer : Wal.writer option;
  mutable records_since_ckpt : int;
  mutable pending_origin : origin option;
  mutable recovered_sessions : session list;
  mutable recovered_last_commit : int;
  mutable recovered_base : int;
  mutable epoch : int;
  mutable boundaries : (int * int) list;
  mutable tap : tap option;
}

let checkpoint_file gen = Printf.sprintf "checkpoint-%09d.rxc" gen
let wal_file gen = Printf.sprintf "wal-%09d.rxl" gen
let checkpoint_path t gen = Filename.concat t.t_dir (checkpoint_file gen)
let wal_path t gen = Filename.concat t.t_dir (wal_file gen)

let parse_gen ~prefix ~suffix name =
  let plen = String.length prefix and slen = String.length suffix in
  let n = String.length name in
  if n > plen + slen
     && String.sub name 0 plen = prefix
     && String.sub name (n - slen) slen = suffix
  then int_of_string_opt (String.sub name plen (n - plen - slen))
  else None

let checkpoint_generations dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (parse_gen ~prefix:"checkpoint-" ~suffix:".rxc")
  |> List.sort (fun a b -> compare b a)

let rec mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      let parent = Filename.dirname dir in
      if parent = dir then raise (Unix.Unix_error (Unix.ENOENT, "mkdir", dir));
      mkdir_p parent;
      mkdir_p dir

(* {2 Record codec}

   Every WAL payload starts with a varint tag. Tag 3 ([Group]) is a
   committed update group — its epoch stamp, an optional client origin,
   and the ΔR ops. Tag 1 ([Sessions]) is a snapshot of the
   server's exactly-once dedup table, written as the first record of each
   new generation's WAL at checkpoint rotation so the table survives log
   deletion. Keeping an origin {e inside} the same record as its group is
   the exactly-once invariant: replaying a prefix of the log yields a
   dedup table that matches the replayed database state bit for bit.

   Tag 0 was the earlier group layout, which also carried a solver seed.
   It is retired rather than reused, so such a record fails to decode as
   an unknown tag instead of being misread under the new layout. *)

let tag_sessions = 1
let tag_epoch = 2
let tag_group = 3

let encode_record ?origin ?(epoch = 0) (g : Group_update.t) =
  let b = Buffer.create 128 in
  Codec.varint b tag_group;
  Codec.varint b epoch;
  (match origin with
  | None -> Codec.varint b 0
  | Some o ->
      Codec.varint b 1;
      Codec.bytes_ b o.o_client;
      Codec.varint b o.o_seq;
      Codec.varint b o.o_commit;
      Codec.varint b o.o_reports);
  Codec.group b g;
  Buffer.contents b

let encode_sessions_record ~last_commit sessions =
  let b = Buffer.create 64 in
  Codec.varint b tag_sessions;
  Codec.varint b last_commit;
  Codec.varint b (List.length sessions);
  List.iter
    (fun s ->
      Codec.bytes_ b s.sess_client;
      Codec.varint b s.sess_seq;
      Codec.varint b s.sess_commit;
      Codec.varint b s.sess_reports;
      Codec.varint b s.sess_delta)
    sessions;
  Buffer.contents b

(* an epoch transition: the promotion fence. [boundary] is the last
   commit of the previous epoch — everything beyond it on a deposed
   primary's log is an unreplicated suffix that divergence repair must
   truncate. Durably appended {e before} the promoted node accepts its
   first write. *)
let encode_epoch_record ~epoch ~boundary =
  let b = Buffer.create 8 in
  Codec.varint b tag_epoch;
  Codec.varint b epoch;
  Codec.varint b boundary;
  Buffer.contents b

let decode_record payload =
  let c = Codec.cursor payload in
  let tag = Codec.get_varint c in
  let r =
    if tag = tag_group then begin
      let epoch = Codec.get_varint c in
      let origin =
        match Codec.get_varint c with
        | 0 -> None
        | 1 ->
            let o_client = Codec.get_bytes c in
            let o_seq = Codec.get_varint c in
            let o_commit = Codec.get_varint c in
            let o_reports = Codec.get_varint c in
            Some { o_client; o_seq; o_commit; o_reports }
        | n -> raise (Codec.Error (Printf.sprintf "bad origin marker %d" n))
      in
      let group = Codec.get_group c in
      Group { epoch; origin; group }
    end
    else if tag = tag_sessions then begin
      let last_commit = Codec.get_varint c in
      let n = Codec.get_varint c in
      let rec go k acc =
        if k = 0 then List.rev acc
        else begin
          let sess_client = Codec.get_bytes c in
          let sess_seq = Codec.get_varint c in
          let sess_commit = Codec.get_varint c in
          let sess_reports = Codec.get_varint c in
          let sess_delta = Codec.get_varint c in
          go (k - 1)
            ({ sess_client; sess_seq; sess_commit; sess_reports; sess_delta }
            :: acc)
        end
      in
      Sessions { last_commit; sessions = go n [] }
    end
    else if tag = tag_epoch then begin
      let epoch = Codec.get_varint c in
      let boundary = Codec.get_varint c in
      Epoch { epoch; boundary }
    end
    else raise (Codec.Error (Printf.sprintf "unknown WAL record tag %d" tag))
  in
  if not (Codec.at_end c) then
    raise (Codec.Error "trailing bytes in WAL record");
  r

(* Replay a decoded record sequence into the dedup state it implies: the
   latest [Sessions] snapshot, overlaid by every subsequent origin. Also
   derives the commit numbering: [base] is the generation's starting
   commit number (the [last_commit] carried by the head-of-WAL [Sessions]
   snapshot — group records never precede one within a file), and the
   final commit number is [max (origin commits) (base + groups seen since
   the snapshot)]. The second arm makes the numbering robust for
   origin-less groups (direct engine appends carry no provenance): every
   committed group is exactly one record, so counting records recovers
   the commit sequence — the invariant replication positions rely on. *)
type scan = {
  sc_sessions : session list;
  sc_last : int;
  sc_base : int;
  sc_epoch : int;  (** highest epoch stamped on any record *)
  sc_boundaries : (int * int) list;  (** epoch transitions, in log order *)
}

let fold_sessions records =
  let tbl = Hashtbl.create 16 in
  let last = ref 0 in
  let base = ref 0 in
  let since = ref 0 in
  let ep = ref 0 in
  let bounds = ref [] in
  List.iter
    (function
      | Sessions { last_commit; sessions } ->
          Hashtbl.reset tbl;
          List.iter (fun s -> Hashtbl.replace tbl s.sess_client s) sessions;
          if last_commit > !last then last := last_commit;
          if last_commit > !base then base := last_commit;
          since := 0
      | Group { origin = Some o; group; epoch; _ } ->
          Hashtbl.replace tbl o.o_client
            { sess_client = o.o_client; sess_seq = o.o_seq;
              sess_commit = o.o_commit; sess_reports = o.o_reports;
              sess_delta = List.length group };
          if o.o_commit > !last then last := o.o_commit;
          if epoch > !ep then ep := epoch;
          incr since
      | Group { origin = None; epoch; _ } ->
          if epoch > !ep then ep := epoch;
          incr since
      | Epoch { epoch; boundary } ->
          if epoch > !ep then ep := epoch;
          bounds := (epoch, boundary) :: !bounds)
    records;
  let last = max !last (!base + !since) in
  {
    sc_sessions = Hashtbl.fold (fun _ s acc -> s :: acc) tbl [];
    sc_last = last;
    sc_base = !base;
    sc_epoch = !ep;
    sc_boundaries = List.rev !bounds;
  }

let is_group = function Group _ -> true | Sessions _ | Epoch _ -> false

(* merge transition histories (image-carried and WAL-scanned), keeping
   one boundary per epoch, ascending *)
let merge_boundaries a b =
  List.sort_uniq compare (a @ b)

(* re-derive the recovered_* state (and epoch lineage) from the current
   generation's files: the WAL scan, overlaid on whatever epoch history
   the checkpoint image carries *)
let rescan t =
  let meta_epoch, meta_bounds =
    match Checkpoint.read_meta (checkpoint_path t t.generation) with
    | Ok m -> (m.Checkpoint.epoch, m.Checkpoint.boundaries)
    | Error _ -> (0, [])
  in
  let replay = Wal.read (wal_path t t.generation) in
  let decoded =
    List.filter_map
      (fun p ->
        match decode_record p with
        | r -> Some r
        | exception Codec.Error _ -> None)
      replay.Wal.records
  in
  t.records_since_ckpt <- List.length (List.filter is_group decoded);
  let sc = fold_sessions decoded in
  t.recovered_sessions <- sc.sc_sessions;
  t.recovered_last_commit <- sc.sc_last;
  t.recovered_base <- sc.sc_base;
  t.epoch <- max meta_epoch sc.sc_epoch;
  t.boundaries <- merge_boundaries meta_bounds sc.sc_boundaries

let open_dir ?(sync = Wal.EveryN 64) dir =
  mkdir_p dir;
  let generation =
    match checkpoint_generations dir with g :: _ -> g | [] -> 0
  in
  let t =
    { t_dir = dir; t_sync = sync; generation; writer = None;
      records_since_ckpt = 0; pending_origin = None;
      recovered_sessions = []; recovered_last_commit = 0;
      recovered_base = 0; epoch = 0; boundaries = []; tap = None }
  in
  rescan t;
  t

let dir t = t.t_dir
let sync_policy t = t.t_sync
let generation t = t.generation
let records_since_checkpoint t = t.records_since_ckpt
let set_origin t o = t.pending_origin <- o
let recovered_sessions t = t.recovered_sessions
let recovered_last_commit t = t.recovered_last_commit
let recovered_base t = t.recovered_base
let epoch t = t.epoch
let boundaries t = t.boundaries
let set_tap t tap = t.tap <- tap

(* the last commit of the epoch a requester at [for_epoch] shares with
   this log: the start-commit of the earliest transition beyond it.
   [None] when the requester is current (no fence); [Some 0] when the
   requester predates every boundary we still know about (full resync). *)
let boundary_for t ~for_epoch =
  if for_epoch >= t.epoch then None
  else
    match List.find_opt (fun (e, _) -> e > for_epoch) t.boundaries with
    | Some (_, b) -> Some b
    | None -> Some 0

(* {2 Logging} *)

let current_writer t =
  match t.writer with
  | Some w -> w
  | None ->
      let w = Wal.open_writer ~sync:t.t_sync (wal_path t t.generation) in
      t.writer <- Some w;
      w

(* the pending origin is consumed whether or not the append succeeds: on
   failure the commit itself is aborted, so the origin must not leak into
   some later, unrelated record *)
let take_origin t =
  let o = t.pending_origin in
  t.pending_origin <- None;
  o

(* fired after a group record reaches the writer, with the exact encoded
   payload — the replication feed's entry point. The sessions record
   written at rotation goes directly to the new writer and is *not* a
   group, so the tap sees one call per committed group, in commit
   order. *)
let tap_group t payload =
  match t.tap with Some tap -> tap.on_group payload | None -> ()

let append t group =
  let origin = take_origin t in
  let payload = encode_record ?origin ~epoch:t.epoch group in
  Wal.append (current_writer t) payload;
  t.records_since_ckpt <- t.records_since_ckpt + 1;
  tap_group t payload

let append_nosync t group =
  let origin = take_origin t in
  let payload = encode_record ?origin ~epoch:t.epoch group in
  Wal.append_nosync (current_writer t) payload;
  t.records_since_ckpt <- t.records_since_ckpt + 1;
  tap_group t payload

(* a durable follower's apply path: log the replicated record byte for
   byte (preserving the primary's epoch and origin stamps, so
   commit numbering and the dedup lineage survive a promotion), buffered
   until an explicit {!sync} like the group-commit path *)
let append_raw t payload =
  Wal.append_nosync (current_writer t) payload;
  match decode_record payload with
  | Group { epoch; _ } ->
      t.records_since_ckpt <- t.records_since_ckpt + 1;
      if epoch > t.epoch then t.epoch <- epoch;
      tap_group t payload
  | Sessions _ | Epoch _ -> ()
  | exception Codec.Error _ -> ()

(* the promotion fence: durably record the transition before the caller
   accepts its first write at the new epoch *)
let append_epoch t ~epoch ~boundary =
  let w = current_writer t in
  Wal.append_nosync w (encode_epoch_record ~epoch ~boundary);
  Wal.sync w;
  t.epoch <- epoch;
  t.boundaries <- merge_boundaries t.boundaries [ (epoch, boundary) ]

let sync t = match t.writer with Some w -> Wal.sync w | None -> ()

let attach ?(deferred_sync = false) t (e : Engine.t) =
  ignore (current_writer t);
  let log = if deferred_sync then append_nosync else append in
  Engine.attach_wal e
    {
      Engine.on_commit = log t;
      records_since_checkpoint = (fun () -> t.records_since_ckpt);
    }

(* {2 Checkpointing} *)

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()

let checkpoint ?sessions t (e : Engine.t) =
  (* make sure every record the new image supersedes is on disk before we
     delete its log: otherwise a crash between delete and image-sync could
     lose committed groups *)
  (match t.writer with Some w -> Wal.sync w | None -> ());
  Rxv_fault.Io.hit "ckpt.begin";
  let gen' = t.generation + 1 in
  let sess, last_commit =
    match sessions with
    | Some sl -> sl
    | None -> (t.recovered_sessions, t.recovered_last_commit)
  in
  (* The new generation's WAL must carry the dedup table forward, and it
     must be durable *before* the rename makes the new checkpoint the
     recovery root — otherwise a crash in between recovers the new image
     with an empty table and re-accepts already-applied client requests.
     [before_rename] runs at exactly that point. A stray wal-<gen'> left
     by an earlier failed attempt is harmless: we append another snapshot
     and replay keeps the last one. *)
  let new_writer = ref None in
  let before_rename () =
    let w = Wal.open_writer ~sync:t.t_sync (wal_path t gen') in
    (try
       if sess <> [] || last_commit > 0 then
         Wal.append_nosync w (encode_sessions_record ~last_commit sess);
       Wal.sync w
     with exn ->
       (try Wal.close w with _ -> ());
       raise exn);
    new_writer := Some w
  in
  let bytes =
    match
      Checkpoint.write ~before_rename
        ~path:(checkpoint_path t gen')
        { Checkpoint.atg_name = e.Engine.atg.Atg.name;
          generation = gen';
          epoch = t.epoch;
          boundaries = t.boundaries }
        e.Engine.db e.Engine.store
    with
    | bytes -> bytes
    | exception exn ->
        (* the old generation stays authoritative; don't leak the fd *)
        (match !new_writer with
        | Some w -> ( try Wal.close w with _ -> ())
        | None -> ());
        raise exn
  in
  (* rotate: the new generation's writer takes over *)
  (match t.writer with
  | Some w -> ( try Wal.close w with _ -> () (* already synced above *))
  | None -> ());
  t.writer <- !new_writer;
  let old_gen = t.generation in
  t.generation <- gen';
  t.records_since_ckpt <- 0;
  t.recovered_sessions <- sess;
  t.recovered_last_commit <- last_commit;
  t.recovered_base <- last_commit;
  (* drop superseded generations (their WALs replay only onto their own
     checkpoint, which the new image replaces) *)
  for g = 0 to old_gen do
    remove_if_exists (checkpoint_path t g);
    remove_if_exists (wal_path t g)
  done;
  (match t.tap with
  | Some tap -> tap.on_rotate ~generation:gen' ~base:last_commit
  | None -> ());
  bytes

(* {2 Recovery} *)

type recovery_info = {
  r_generation : int;
  r_checkpoint : bool;
  r_replayed : int;
  r_truncated : bool;
}

let pp_recovery_info ppf i =
  Fmt.pf ppf "generation %d (%s), %d record(s) replayed%s" i.r_generation
    (if i.r_checkpoint then "checkpoint" else "fresh init")
    i.r_replayed
    (if i.r_truncated then ", damaged tail truncated" else "")

let replay_wal t gen (e : Engine.t) =
  let path = wal_path t gen in
  let replay = Wal.read path in
  if replay.Wal.damage <> None then Wal.truncate_valid path replay;
  let damaged = replay.Wal.damage <> None in
  let rec decode_all n acc = function
    | [] -> Ok (List.rev acc)
    | payload :: rest -> (
        match decode_record payload with
        | exception Codec.Error msg ->
            Error (Printf.sprintf "WAL record %d undecodable: %s" n msg)
        | r -> decode_all (n + 1) (r :: acc) rest)
  in
  match decode_all 0 [] replay.Wal.records with
  | Error _ as err -> err
  | Ok records -> (
      let sc = fold_sessions records in
      t.recovered_sessions <- sc.sc_sessions;
      t.recovered_last_commit <- sc.sc_last;
      t.recovered_base <- sc.sc_base;
      t.epoch <- max t.epoch sc.sc_epoch;
      t.boundaries <- merge_boundaries t.boundaries sc.sc_boundaries;
      let groups =
        List.filter_map
          (function
            | Group { group; _ } -> Some group
            | Sessions _ | Epoch _ -> None)
          records
      in
      match groups with
      | [] -> Ok (0, damaged)
      | _ -> (
          (* records are groups of ΔR ops in commit order; concatenating
             them preserves the op sequence exactly, so one
             Base_update.apply call reaches the same database — and
             repairs the view once, instead of paying per-record
             localization (the win that makes replay beat republication) *)
          let batch = List.concat groups in
          let applied =
            if Group_update.is_empty batch then Ok ()
            else
              match Base_update.apply e batch with
              | Ok _ -> Ok ()
              | Error msg -> Error ("WAL replay failed to re-apply: " ^ msg)
          in
          match applied with
          | Ok () -> Ok (List.length groups, damaged)
          | Error _ as err -> err))

let finish t gen ~from_checkpoint (e : Engine.t) =
  match replay_wal t gen e with
  | Error _ as err -> err
  | Ok (replayed, truncated) ->
      t.generation <- gen;
      t.records_since_ckpt <- replayed;
      (match t.writer with Some w -> Wal.close w | None -> ());
      t.writer <- None;
      Ok
        ( e,
          { r_generation = gen; r_checkpoint = from_checkpoint;
            r_replayed = replayed; r_truncated = truncated } )

let recover ?seed:_ t (atg : Atg.t) ~init =
  match checkpoint_generations t.t_dir with
  | [] ->
      (* nothing checkpointed yet: deterministic initial publication, then
         whatever generation-0 log survived *)
      let e = Engine.create atg (init ()) in
      finish t 0 ~from_checkpoint:false e
  | gens ->
      let rec try_gens errors = function
        | [] ->
            Error
              (Printf.sprintf "no readable checkpoint: %s"
                 (String.concat "; " (List.rev errors)))
        | gen :: older -> (
            let path = checkpoint_path t gen in
            match Checkpoint.read path with
            | Error msg ->
                try_gens
                  (Printf.sprintf "%s: %s" (checkpoint_file gen) msg :: errors)
                  older
            | Ok (meta, db, store) ->
                if meta.Checkpoint.atg_name <> atg.Atg.name then
                  Error
                    (Printf.sprintf
                       "%s was taken for ATG %S, not %S"
                       (checkpoint_file gen) meta.Checkpoint.atg_name
                       atg.Atg.name)
                else begin
                  t.epoch <- max t.epoch meta.Checkpoint.epoch;
                  t.boundaries <-
                    merge_boundaries t.boundaries meta.Checkpoint.boundaries;
                  let e = Engine.of_durable atg db store in
                  finish t gen ~from_checkpoint:true e
                end)
      in
      try_gens [] gens

let close t =
  (match t.writer with Some w -> Wal.close w | None -> ());
  t.writer <- None

(* {2 Replication support} *)

(* Read the current generation's WAL from disk and return the encoded
   group payloads for commits [after+1 .. after+max]. The generation's
   base commit number is re-derived from the head-of-WAL [Sessions]
   snapshot(s) rather than trusted from [t] — the file is the authority,
   and a stray snapshot from a failed checkpoint attempt just raises the
   base to the latest value (group records never precede the snapshots
   within one file). Racing the live writer is safe: unsynced appends
   are either invisible (still buffered) or land as whole frames after
   the prefix we read; a torn tail frame fails its CRC and is dropped by
   [Wal.read]. Callers bound [max] by their durable watermark so no
   unacknowledged record is ever served. *)
let read_group_tail t ~after ~max:max_n =
  let replay = Wal.read (wal_path t t.generation) in
  let base, rev_groups =
    List.fold_left
      (fun (base, groups) payload ->
        match decode_record payload with
        | Sessions { last_commit; _ } when groups = [] ->
            (Stdlib.max base last_commit, groups)
        | Sessions _ | Epoch _ -> (base, groups)
        | Group _ -> (base, payload :: groups)
        | exception Codec.Error _ -> (base, groups))
      (0, []) replay.Wal.records
  in
  if after < base then Error (`Reset base)
  else begin
    let rec slice i n = function
      | _ when n = 0 -> []
      | [] -> []
      | p :: rest ->
          if i > 0 then slice (i - 1) n rest else p :: slice 0 (n - 1) rest
    in
    Ok (slice (after - base) max_n (List.rev rev_groups))
  end

(* Raw bytes of the current generation's checkpoint image, for shipping
   to a bootstrapping follower. [None] at generation 0 (no image exists:
   a follower re-initializes deterministically and replays from commit
   0). Callers serialize against {!checkpoint} (which deletes superseded
   images) — the server's sync mutex does exactly that. *)
let checkpoint_blob t =
  if t.generation = 0 then None
  else begin
    let path = checkpoint_path t t.generation in
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        Some (t.generation, t.recovered_base, really_input_string ic n))
  end

(* Divergence repair: physically truncate the current generation's WAL
   so no group record beyond commit number [commit] survives — the same
   prefix-truncation move as torn-tail repair, applied at a commit
   boundary instead of a damage boundary. A deposed primary calls this
   with the new primary's epoch boundary before re-entering as a
   follower; the discarded suffix is exactly the set of commits it acked
   locally but never replicated. Returns the number of commits
   discarded. *)
let discard_after t ~commit =
  (match t.writer with Some w -> ( try Wal.close w with _ -> ()) | None -> ());
  t.writer <- None;
  let before = t.recovered_last_commit in
  let path = wal_path t t.generation in
  (match
     if Sys.file_exists path then
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> Some (really_input_string ic (in_channel_length ic)))
     else None
   with
  | None -> ()
  | Some s ->
      let rec walk pos base groups keep =
        match Frame.read_one s ~pos with
        | `End | `Bad _ -> keep
        | `Record (payload, next) -> (
            match decode_record payload with
            | Sessions { last_commit; _ } when groups = 0 ->
                walk next (Stdlib.max base last_commit) groups next
            | Sessions _ | Epoch _ -> walk next base groups next
            | Group _ ->
                if base + groups + 1 <= commit then
                  walk next base (groups + 1) next
                else keep
            | exception Codec.Error _ -> keep)
      in
      let keep = walk 0 0 0 0 in
      if keep < String.length s then begin
        Unix.truncate path keep;
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        (try Unix.fsync fd with Unix.Unix_error _ -> ());
        Unix.close fd
      end);
  rescan t;
  (* truncation replaces history, it does not extend it: a shadowing
     replication feed must drop its window of now-discarded records and
     restart at the surviving tail *)
  (match t.tap with
  | Some tap ->
      tap.on_reset ~generation:t.generation ~base:t.recovered_last_commit
  | None -> ());
  Stdlib.max 0 (before - t.recovered_last_commit)

let remove_other_generations t ~keep =
  Sys.readdir t.t_dir
  |> Array.iter (fun name ->
         let gen =
           match parse_gen ~prefix:"checkpoint-" ~suffix:".rxc" name with
           | Some g -> Some g
           | None -> parse_gen ~prefix:"wal-" ~suffix:".rxl" name
         in
         match gen with
         | Some g when g <> keep ->
             remove_if_exists (Filename.concat t.t_dir name)
         | _ -> ())

(* A durable follower adopting a shipped checkpoint: install the image
   as this directory's recovery root, start a fresh WAL for its
   generation seeded with the primary's session snapshot (so the dedup
   lineage survives a later promotion), and drop every other
   generation. *)
let install_checkpoint t ~generation ~base ~sessions bytes =
  (match t.writer with Some w -> ( try Wal.close w with _ -> ()) | None -> ());
  t.writer <- None;
  let path = checkpoint_path t generation in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc bytes;
     flush oc;
     (try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
     close_out oc;
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  (* a stale log from this directory's previous life must not replay on
     top of the adopted image *)
  remove_if_exists (wal_path t generation);
  let w = Wal.open_writer ~sync:t.t_sync (wal_path t generation) in
  if sessions <> [] || base > 0 then
    Wal.append_nosync w (encode_sessions_record ~last_commit:base sessions);
  Wal.sync w;
  t.writer <- Some w;
  t.generation <- generation;
  remove_other_generations t ~keep:generation;
  t.records_since_ckpt <- 0;
  t.recovered_sessions <- sessions;
  t.recovered_last_commit <- base;
  t.recovered_base <- base;
  (match Checkpoint.read_meta path with
  | Ok m ->
      t.epoch <- max t.epoch m.Checkpoint.epoch;
      t.boundaries <- merge_boundaries t.boundaries m.Checkpoint.boundaries
  | Error _ -> ());
  match t.tap with
  | Some tap -> tap.on_reset ~generation ~base
  | None -> ()

(* back to generation 0 with nothing logged: the durable mirror of a
   follower's fresh-init reset (the whole stream will be re-pulled and
   re-appended) *)
let reset_empty t =
  (match t.writer with Some w -> ( try Wal.close w with _ -> ()) | None -> ());
  t.writer <- None;
  remove_other_generations t ~keep:(-1);
  t.generation <- 0;
  t.records_since_ckpt <- 0;
  t.recovered_sessions <- [];
  t.recovered_last_commit <- 0;
  t.recovered_base <- 0;
  match t.tap with
  | Some tap -> tap.on_reset ~generation:0 ~base:0
  | None -> ()

let wal_path = wal_path
let checkpoint_path = checkpoint_path

(* Tests for the durability layer: CRC framing, the binary codec,
   WAL read/append/truncate, atomic checkpoints, and directory-level
   recovery (rotation, fallback past corrupt images, ATG mismatch). *)

module Value = Rxv_relational.Value
module Tuple = Rxv_relational.Tuple
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Tree = Rxv_xml.Tree
module Parser = Rxv_xpath.Parser
module Engine = Rxv_core.Engine
module Xupdate = Rxv_core.Xupdate
module Registrar = Rxv_workload.Registrar
module Store = Rxv_dag.Store
module Crc32 = Rxv_persist.Crc32
module Codec = Rxv_persist.Codec
module Frame = Rxv_persist.Frame
module Wal = Rxv_persist.Wal
module Checkpoint = Rxv_persist.Checkpoint
module Persist = Rxv_persist.Persist

let check = Alcotest.(check bool)
let s = Value.str

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ins cno title path =
  Xupdate.Insert
    {
      etype = "course";
      attr = Registrar.course_attr cno title;
      path = Parser.parse path;
    }

(* ---- scratch directories ---- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let with_dir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rxv-persist-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- CRC-32 ---- *)

let test_crc32 () =
  Alcotest.(check int32) "empty" 0l (Crc32.string "");
  Alcotest.(check int32) "check vector" 0xCBF43926l (Crc32.string "123456789");
  (* incremental digest equals one-shot *)
  let s1 = "12345" and s2 = "6789" in
  let inc =
    Crc32.digest ~crc:(Crc32.string s1) s2 ~pos:0 ~len:(String.length s2)
  in
  Alcotest.(check int32) "chunked" (Crc32.string "123456789") inc

(* ---- codec primitives ---- *)

let test_codec_primitives () =
  let roundtrip enc dec v =
    let b = Buffer.create 16 in
    enc b v;
    let c = Codec.cursor (Buffer.contents b) in
    let v' = dec c in
    check "cursor consumed" true (Codec.at_end c);
    v = v'
  in
  List.iter
    (fun n ->
      check (Printf.sprintf "varint %d" n) true
        (roundtrip Codec.varint Codec.get_varint n))
    [ 0; 1; -1; 63; -64; 64; 300; -300; 1 lsl 40; -(1 lsl 40); max_int; min_int + 1 ];
  List.iter
    (fun n ->
      check (Printf.sprintf "u32 %d" n) true
        (roundtrip Codec.u32 Codec.get_u32 n))
    [ 0; 1; 0xFFFF; 0xFFFF_FFFF ];
  List.iter
    (fun str ->
      check "bytes" true (roundtrip Codec.bytes_ Codec.get_bytes str))
    [ ""; "a"; String.make 300 'x'; "\x00\xff\n" ];
  List.iter
    (fun v ->
      check "value" true (roundtrip Codec.value Codec.get_value v))
    [ Value.Int 0; Value.Int (-7); Value.str "hi"; Value.Bool true; Value.Bool false ];
  check "tuple" true
    (roundtrip Codec.tuple Codec.get_tuple [| s "CS650"; Value.Int 3 |])

let test_codec_database () =
  let db = Registrar.sample_db () in
  let b = Buffer.create 256 in
  Codec.database b db;
  let db' = Codec.get_database (Codec.cursor (Buffer.contents b)) in
  check "database round trip" true (Database.equal db db');
  (* deterministic bytes *)
  let b2 = Buffer.create 256 in
  Codec.database b2 db';
  check "deterministic encoding" true (Buffer.contents b = Buffer.contents b2)

let test_codec_group () =
  let g =
    [
      Group_update.Insert ("course", [| s "CS900"; s "Logic" |]);
      Group_update.Delete ("prereq", [ s "CS650"; s "CS320" ]);
    ]
  in
  let b = Buffer.create 64 in
  Codec.group b g;
  let g' = Codec.get_group (Codec.cursor (Buffer.contents b)) in
  check "group round trip" true (g = g')

let test_codec_store () =
  let e = Registrar.engine () in
  let p = Store.to_persisted e.Engine.store in
  let b = Buffer.create 1024 in
  Codec.store b p;
  let p' = Codec.get_store (Codec.cursor (Buffer.contents b)) in
  let reenc = Buffer.create 1024 in
  Codec.store reenc p';
  check "store round trip (byte-stable)" true
    (Buffer.contents b = Buffer.contents reenc);
  (* decoded store rebuilds into the same tree *)
  let e' =
    Engine.of_durable (Registrar.atg ()) (Database.copy e.Engine.db)
      (Store.of_persisted p')
  in
  check "rebuilt tree equal" true
    (Tree.equal_canonical (Engine.to_tree e) (Engine.to_tree e'))

let test_codec_rejects_garbage () =
  (match Codec.get_database (Codec.cursor "\x07garbage") with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "garbage decoded as database");
  match Codec.get_value (Codec.cursor "\xFF") with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "bad tag decoded as value"

(* ---- frames ---- *)

let test_frame_scan () =
  let b = Buffer.create 64 in
  Frame.add b "alpha";
  Frame.add b "";
  Frame.add b "gamma";
  let img = Buffer.contents b in
  let sc = Frame.scan img in
  check "no error" true (sc.Frame.error = None);
  Alcotest.(check (list string)) "payloads" [ "alpha"; ""; "gamma" ]
    sc.Frame.payloads;
  Alcotest.(check int) "valid_len" (String.length img) sc.Frame.valid_len;
  (* torn tail: cut one byte off the last record *)
  let torn = String.sub img 0 (String.length img - 1) in
  let sc = Frame.scan torn in
  Alcotest.(check (list string)) "torn keeps prefix" [ "alpha"; "" ]
    sc.Frame.payloads;
  check "torn reported" true (sc.Frame.error <> None);
  (* CRC flip inside the first payload *)
  let flipped = Bytes.of_string img in
  Bytes.set flipped Frame.header_bytes
    (Char.chr (Char.code (Bytes.get flipped Frame.header_bytes) lxor 0xFF));
  let sc = Frame.scan (Bytes.to_string flipped) in
  Alcotest.(check (list string)) "crc failure stops scan" [] sc.Frame.payloads;
  check "crc reported" true (sc.Frame.error <> None)

(* ---- WAL ---- *)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "w.rxl" in
      let w = Wal.open_writer ~sync:Wal.Always path in
      Wal.append w "one";
      Wal.append w "two";
      Wal.close w;
      (* append mode: a reopened writer extends the same log *)
      let w = Wal.open_writer ~sync:Wal.Never path in
      Wal.append w "three";
      Wal.close w;
      let r = Wal.read path in
      Alcotest.(check (list string)) "records" [ "one"; "two"; "three" ]
        r.Wal.records;
      check "undamaged" true (r.Wal.damage = None);
      (* tear the tail, then truncate it away *)
      let img = read_file path in
      write_file path (String.sub img 0 (String.length img - 2));
      let r = Wal.read path in
      Alcotest.(check (list string)) "torn tail dropped" [ "one"; "two" ]
        r.Wal.records;
      check "damage diagnosed" true (r.Wal.damage <> None);
      Wal.truncate_valid path r;
      let r = Wal.read path in
      check "clean after truncate" true (r.Wal.damage = None);
      Alcotest.(check (list string)) "prefix survives" [ "one"; "two" ]
        r.Wal.records;
      (* missing file = empty log *)
      let r = Wal.read (Filename.concat dir "absent.rxl") in
      check "missing file empty" true
        (r.Wal.records = [] && r.Wal.damage = None))

(* replay is a trusted path: a committed record larger than the
   hostile-peer acceptance bound must replay intact, not be classified
   as corruption (which would silently truncate every later commit) *)
let test_wal_replay_ignores_acceptance_bound () =
  with_dir (fun dir ->
      let path = Filename.concat dir "w.rxl" in
      let big = String.make 4096 'B' in
      let w = Wal.open_writer ~sync:Wal.Always path in
      Wal.append w big;
      Wal.append w "after";
      Wal.close w;
      let saved = Frame.max_accepted () in
      Frame.set_max_accepted 1024;
      Fun.protect
        ~finally:(fun () -> Frame.set_max_accepted saved)
        (fun () ->
          let r = Wal.read path in
          check "no damage despite tiny acceptance bound" true
            (r.Wal.damage = None);
          Alcotest.(check (list string)) "both records replayed"
            [ big; "after" ] r.Wal.records))

(* the append/sync split: append_nosync never syncs (whatever the
   policy), explicit sync resets the unsynced count, and the policy API
   is a thin wrapper over the same primitives *)
let test_wal_append_sync_split () =
  with_dir (fun dir ->
      let path = Filename.concat dir "w.rxl" in
      (* even under Always, append_nosync defers durability *)
      let w = Wal.open_writer ~sync:Wal.Always path in
      Wal.append_nosync w "a";
      Wal.append_nosync w "b";
      Alcotest.(check int) "nosync accumulates" 2 (Wal.unsynced w);
      Wal.sync w;
      Alcotest.(check int) "explicit sync resets" 0 (Wal.unsynced w);
      Wal.append w "c";
      Alcotest.(check int) "policy wrapper syncs under Always" 0
        (Wal.unsynced w);
      Wal.close w;
      Alcotest.(check (list string)) "all records durable" [ "a"; "b"; "c" ]
        (Wal.read path).Wal.records;
      (* EveryN counts nosync appends too: the next policy append sees
         the true backlog *)
      let path2 = Filename.concat dir "w2.rxl" in
      let w = Wal.open_writer ~sync:(Wal.EveryN 3) path2 in
      Wal.append_nosync w "x";
      Wal.append_nosync w "y";
      Alcotest.(check int) "backlog visible" 2 (Wal.unsynced w);
      Wal.append w "z";
      Alcotest.(check int) "EveryN drains the backlog" 0 (Wal.unsynced w);
      Wal.close w;
      Alcotest.(check int) "records counted" 3 (Wal.records w))

(* Persist-level deferred sync: appends through the engine hook are
   buffered until Persist.sync *)
let test_persist_deferred_sync () =
  with_dir (fun dir ->
      let e = Registrar.engine () in
      let p = Persist.open_dir ~sync:Wal.Always dir in
      Persist.attach ~deferred_sync:true p e;
      (match Engine.apply e (ins "CS9A1" "Deferred I" "//course[cno=CS240]/prereq") with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "apply rejected: %a" Engine.pp_rejection r);
      (match Engine.apply e (ins "CS9A2" "Deferred II" "//course[cno=CS240]/prereq") with
      | Ok _ -> ()
      | Error r -> Alcotest.failf "apply rejected: %a" Engine.pp_rejection r);
      Alcotest.(check int) "both groups logged" 2
        (Persist.records_since_checkpoint p);
      Persist.sync p;
      Persist.close p;
      let r = Wal.read (Persist.wal_path p 0) in
      Alcotest.(check int) "both records on disk after sync" 2
        (List.length r.Wal.records))

(* ---- checkpoints ---- *)

let test_checkpoint_roundtrip () =
  with_dir (fun dir ->
      let e = Registrar.engine () in
      let path = Filename.concat dir "c.rxc" in
      let meta =
        {
          Checkpoint.atg_name = "registrar";
          generation = 3;
          epoch = 2;
          boundaries = [ (1, 0); (2, 7) ];
        }
      in
      let bytes = Checkpoint.write ~path meta e.Engine.db e.Engine.store in
      Alcotest.(check int) "size reported" bytes
        (String.length (read_file path));
      (match Checkpoint.read_meta path with
      | Ok m -> check "meta" true (m = meta)
      | Error msg -> Alcotest.failf "read_meta: %s" msg);
      (match Checkpoint.read_database path with
      | Ok (m, db) ->
          check "db meta" true (m = meta);
          check "db equal" true (Database.equal db e.Engine.db)
      | Error msg -> Alcotest.failf "read_database: %s" msg);
      match Checkpoint.read path with
      | Error msg -> Alcotest.failf "read: %s" msg
      | Ok (m, db, store) ->
          check "meta round trip" true (m = meta);
          check "database round trip" true (Database.equal db e.Engine.db);
          let e' = Engine.of_durable (Registrar.atg ()) db store in
          check "view round trip" true
            (Tree.equal_canonical (Engine.to_tree e) (Engine.to_tree e'));
          (match Engine.check_consistency e' with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "restored engine inconsistent: %s" msg))

let test_checkpoint_corruption () =
  with_dir (fun dir ->
      let e = Registrar.engine () in
      let path = Filename.concat dir "c.rxc" in
      let meta =
        {
          Checkpoint.atg_name = "registrar";
          generation = 1;
          epoch = 0;
          boundaries = [];
        }
      in
      ignore (Checkpoint.write ~path meta e.Engine.db e.Engine.store);
      let img = read_file path in
      (* flip a payload byte: CRC must catch it *)
      let bad = Bytes.of_string img in
      let mid = String.length img / 2 in
      Bytes.set bad mid (Char.chr (Char.code (Bytes.get bad mid) lxor 0x01));
      write_file path (Bytes.to_string bad);
      (match Checkpoint.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt checkpoint read back");
      (* truncation must be caught too *)
      write_file path (String.sub img 0 (String.length img - 3));
      (match Checkpoint.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated checkpoint read back");
      (* wrong magic *)
      write_file path ("XXXX" ^ String.sub img 4 (String.length img - 4));
      match Checkpoint.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad magic accepted")

(* ---- record codec ---- *)

let test_record_codec () =
  let g =
    [
      Group_update.Insert ("course", [| s "CS1"; s "T" |]);
      Group_update.Delete ("prereq", [ s "CS650"; s "CS320" ]);
    ]
  in
  let payload = Persist.encode_record g in
  (match Persist.decode_record payload with
  | Persist.Group { epoch; origin; group } ->
      Alcotest.(check int) "default epoch" 0 epoch;
      check "no origin" true (origin = None);
      check "group" true (g = group)
  | Persist.Sessions _ | Persist.Epoch _ ->
      Alcotest.fail "group decoded as another record");
  (* with provenance *)
  let o =
    { Persist.o_client = "c42.1.abc"; o_seq = 7; o_commit = 19; o_reports = 2 }
  in
  (match Persist.decode_record (Persist.encode_record ~origin:o g) with
  | Persist.Group { origin = Some o'; _ } -> check "origin" true (o = o')
  | _ -> Alcotest.fail "origin lost in round-trip");
  (* sessions snapshot *)
  let sessions =
    [
      { Persist.sess_client = "a"; sess_seq = 4; sess_commit = 9;
        sess_reports = 1; sess_delta = 3 };
      { Persist.sess_client = "b"; sess_seq = 1; sess_commit = 2;
        sess_reports = 1; sess_delta = 1 };
    ]
  in
  (match
     Persist.decode_record
       (Persist.encode_sessions_record ~last_commit:9 sessions)
   with
  | Persist.Sessions { last_commit; sessions = s' } ->
      Alcotest.(check int) "last_commit" 9 last_commit;
      check "sessions" true (sessions = s')
  | Persist.Group _ | Persist.Epoch _ ->
      Alcotest.fail "sessions decoded as another record");
  (* epoch transition *)
  (match
     Persist.decode_record (Persist.encode_epoch_record ~epoch:5 ~boundary:88)
   with
  | Persist.Epoch { epoch; boundary } ->
      Alcotest.(check int) "epoch" 5 epoch;
      Alcotest.(check int) "boundary" 88 boundary
  | Persist.Group _ | Persist.Sessions _ ->
      Alcotest.fail "epoch decoded as another record");
  (* a stamped group round-trips its epoch *)
  (match Persist.decode_record (Persist.encode_record ~epoch:5 g) with
  | Persist.Group { epoch; _ } -> Alcotest.(check int) "stamped epoch" 5 epoch
  | _ -> Alcotest.fail "stamped group lost");
  match Persist.decode_record (payload ^ "\x00") with
  | exception Codec.Error _ -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* ---- directory-level recovery ---- *)

let apply_ok e u =
  match Engine.apply e u with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "apply rejected: %a" Engine.pp_rejection r

let ops =
  [
    ins "CS210" "Systems" "course[cno=CS650]/prereq";
    ins "CS211" "Networks" "course[cno=CS650]/prereq";
    Xupdate.Delete (Parser.parse "course[cno=CS650]/prereq/course[cno=CS320]");
  ]

(* the engine the recovered one must match: same ops, no disk *)
let reference () =
  let e = Registrar.engine () in
  List.iter (apply_ok e) ops;
  e

let test_recover_from_wal_only () =
  with_dir (fun dir ->
      let p = Persist.open_dir ~sync:Wal.Always dir in
      let e =
        match
          Persist.recover p (Registrar.atg ())
            ~init:Registrar.sample_db
        with
        | Ok (e, info) ->
            check "fresh init" true (not info.Persist.r_checkpoint);
            Alcotest.(check int) "nothing to replay" 0 info.Persist.r_replayed;
            e
        | Error msg -> Alcotest.failf "initial recover: %s" msg
      in
      Persist.attach p e;
      List.iter (apply_ok e) ops;
      (match (Engine.stats e).Engine.wal_records with
      | Some n -> Alcotest.(check int) "hook counts records" 3 n
      | None -> Alcotest.fail "wal hook not attached");
      Persist.close p;
      Engine.detach_wal e;
      (* reopen: generation 0, three records replay onto a fresh engine *)
      let p2 = Persist.open_dir dir in
      Alcotest.(check int) "records visible on reopen" 3
        (Persist.records_since_checkpoint p2);
      match
        Persist.recover p2 (Registrar.atg ()) ~init:Registrar.sample_db
      with
      | Error msg -> Alcotest.failf "recover: %s" msg
      | Ok (e', info) ->
          Alcotest.(check int) "replayed" 3 info.Persist.r_replayed;
          check "no truncation" true (not info.Persist.r_truncated);
          let r = reference () in
          check "tree matches reference" true
            (Tree.equal_canonical (Engine.to_tree r) (Engine.to_tree e'));
          check "db matches reference" true (Database.equal r.Engine.db e'.Engine.db);
          (match Engine.check_consistency e' with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "inconsistent: %s" msg);
          Persist.close p2)

let test_checkpoint_rotation () =
  with_dir (fun dir ->
      let p = Persist.open_dir ~sync:Wal.Always dir in
      let e =
        match
          Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db
        with
        | Ok (e, _) -> e
        | Error msg -> Alcotest.failf "recover: %s" msg
      in
      Persist.attach p e;
      List.iter (apply_ok e) [ List.nth ops 0; List.nth ops 1 ];
      let bytes = Persist.checkpoint p e in
      check "checkpoint non-empty" true (bytes > 0);
      Alcotest.(check int) "generation bumped" 1 (Persist.generation p);
      Alcotest.(check int) "counter reset" 0 (Persist.records_since_checkpoint p);
      check "old WAL deleted" true (not (Sys.file_exists (Persist.wal_path p 0)));
      check "old checkpoint absent" true
        (not (Sys.file_exists (Persist.checkpoint_path p 0)));
      (* one more committed group lands in the generation-1 log *)
      apply_ok e (List.nth ops 2);
      Alcotest.(check int) "post-rotate record" 1
        (Persist.records_since_checkpoint p);
      Persist.close p;
      Engine.detach_wal e;
      let p2 = Persist.open_dir dir in
      match
        Persist.recover p2 (Registrar.atg ()) ~init:Registrar.sample_db
      with
      | Error msg -> Alcotest.failf "recover: %s" msg
      | Ok (e', info) ->
          check "from checkpoint" true info.Persist.r_checkpoint;
          Alcotest.(check int) "generation" 1 info.Persist.r_generation;
          Alcotest.(check int) "one record replayed" 1 info.Persist.r_replayed;
          let r = reference () in
          check "tree matches reference" true
            (Tree.equal_canonical (Engine.to_tree r) (Engine.to_tree e'));
          check "db matches reference" true
            (Database.equal r.Engine.db e'.Engine.db);
          (match Engine.check_consistency e' with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "inconsistent: %s" msg);
          Persist.close p2)

let test_corrupt_checkpoint_falls_back () =
  with_dir (fun dir ->
      let p = Persist.open_dir ~sync:Wal.Always dir in
      let e =
        match
          Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db
        with
        | Ok (e, _) -> e
        | Error msg -> Alcotest.failf "recover: %s" msg
      in
      Persist.attach p e;
      List.iter (apply_ok e) [ List.nth ops 0; List.nth ops 1 ];
      ignore (Persist.checkpoint p e);
      apply_ok e (List.nth ops 2);
      Persist.close p;
      Engine.detach_wal e;
      (* fabricate a newer, corrupt generation: recovery must skip it and
         land on the intact generation-1 pair *)
      let good = read_file (Persist.checkpoint_path p 1) in
      write_file (Persist.checkpoint_path p 2)
        (String.sub good 0 (String.length good - 5));
      let p2 = Persist.open_dir dir in
      Alcotest.(check int) "newest gen wins at open" 2 (Persist.generation p2);
      match
        Persist.recover p2 (Registrar.atg ()) ~init:Registrar.sample_db
      with
      | Error msg -> Alcotest.failf "recover: %s" msg
      | Ok (e', info) ->
          Alcotest.(check int) "fell back to gen 1" 1 info.Persist.r_generation;
          Alcotest.(check int) "gen-1 tail replayed" 1 info.Persist.r_replayed;
          let r = reference () in
          check "state matches reference" true
            (Tree.equal_canonical (Engine.to_tree r) (Engine.to_tree e'));
          Persist.close p2)

let test_atg_mismatch_rejected () =
  with_dir (fun dir ->
      let p = Persist.open_dir dir in
      let e =
        match
          Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db
        with
        | Ok (e, _) -> e
        | Error msg -> Alcotest.failf "recover: %s" msg
      in
      ignore (Persist.checkpoint p e);
      Persist.close p;
      let p2 = Persist.open_dir dir in
      match
        Persist.recover p2 (Rxv_workload.Synth.atg ()) ~init:(fun () ->
            Rxv_workload.Registrar.sample_db ())
      with
      | Error _ -> Persist.close p2
      | Ok _ -> Alcotest.fail "checkpoint for another ATG accepted")

(* ---- retired on-disk formats ---- *)

(* The earlier group layout (tag 0) carried a solver seed before the
   epoch. A CRC-valid record of that layout is not a torn tail: recovery
   must refuse the log and leave the file as it found it. *)
let test_legacy_group_record_refused () =
  with_dir (fun dir ->
      let p = Persist.open_dir dir in
      let legacy =
        let b = Buffer.create 64 in
        Codec.varint b 0 (* tag *);
        Codec.varint b 20070416 (* seed *);
        Codec.varint b 0 (* epoch *);
        Codec.varint b 0 (* no origin *);
        Codec.group b [ Group_update.Insert ("course", [| s "CS1"; s "T" |]) ];
        Buffer.contents b
      in
      let wal = Persist.wal_path p 0 in
      let w = Wal.open_writer ~sync:Wal.Always wal in
      Wal.append w legacy;
      Wal.close w;
      let before = read_file wal in
      (match
         Persist.recover p (Registrar.atg ()) ~init:Registrar.sample_db
       with
      | Ok _ -> Alcotest.fail "legacy tag-0 group record accepted"
      | Error msg ->
          check "names the unknown tag" true
            (contains msg "unknown WAL record tag 0"));
      check "log left untouched" true (read_file wal = before);
      let r = Wal.read wal in
      check "record still frame-valid" true (r.Wal.damage = None);
      Alcotest.(check int) "record kept" 1 (List.length r.Wal.records);
      Persist.close p)

(* A version-2 image (whose meta carried the solver seed) is refused by
   its version byte, before any of its body is decoded. *)
let test_checkpoint_v2_refused () =
  with_dir (fun dir ->
      let e = Registrar.engine () in
      let p = Persist.open_dir dir in
      let path = Persist.checkpoint_path p 1 in
      let body = Buffer.create 4096 in
      Codec.bytes_ body "registrar";
      Codec.varint body 20070415 (* seed *);
      Codec.varint body 1 (* generation *);
      Codec.varint body 0 (* epoch *);
      Codec.list_ (fun _ _ -> ()) body [] (* boundaries *);
      Codec.database body e.Engine.db;
      Codec.store body (Store.to_persisted e.Engine.store);
      let image = Buffer.create (Buffer.length body + 16) in
      Buffer.add_string image "RXVC";
      Buffer.add_char image (Char.chr 2);
      Frame.add image (Buffer.contents body);
      write_file path (Buffer.contents image);
      (match Checkpoint.read path with
      | Ok _ -> Alcotest.fail "version-2 checkpoint read back"
      | Error msg ->
          check "unsupported version reported" true
            (contains msg "unsupported checkpoint version 2"));
      Persist.close p;
      let p2 = Persist.open_dir dir in
      match
        Persist.recover p2 (Registrar.atg ()) ~init:Registrar.sample_db
      with
      | Ok _ -> Alcotest.fail "recovered from a version-2 checkpoint"
      | Error msg ->
          check "recovery names the version" true
            (contains msg "unsupported checkpoint version 2");
          Persist.close p2)

let tests =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32;
    Alcotest.test_case "codec primitives" `Quick test_codec_primitives;
    Alcotest.test_case "codec database" `Quick test_codec_database;
    Alcotest.test_case "codec group" `Quick test_codec_group;
    Alcotest.test_case "codec store" `Quick test_codec_store;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "frame scan / torn / crc" `Quick test_frame_scan;
    Alcotest.test_case "wal round trip + truncate" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal replay ignores acceptance bound" `Quick
      test_wal_replay_ignores_acceptance_bound;
    Alcotest.test_case "wal append/sync split" `Quick
      test_wal_append_sync_split;
    Alcotest.test_case "persist deferred sync" `Quick
      test_persist_deferred_sync;
    Alcotest.test_case "checkpoint round trip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint corruption" `Quick test_checkpoint_corruption;
    Alcotest.test_case "record codec" `Quick test_record_codec;
    Alcotest.test_case "recover from wal only" `Quick test_recover_from_wal_only;
    Alcotest.test_case "checkpoint rotation" `Quick test_checkpoint_rotation;
    Alcotest.test_case "corrupt checkpoint falls back" `Quick
      test_corrupt_checkpoint_falls_back;
    Alcotest.test_case "atg mismatch rejected" `Quick test_atg_mismatch_rejected;
    Alcotest.test_case "legacy group record refused" `Quick
      test_legacy_group_record_refused;
    Alcotest.test_case "version-2 checkpoint refused" `Quick
      test_checkpoint_v2_refused;
  ]

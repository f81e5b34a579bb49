(** Checkpoints. File layout: the 5-byte preamble ["RXVC" ^ version],
    then one CRC frame whose payload is [meta ++ database ++ store]. *)

module Database = Rxv_relational.Database
module Store = Rxv_dag.Store

type meta = {
  atg_name : string;
  generation : int;
  epoch : int;
  boundaries : (int * int) list;
}

let magic = "RXVC"
let version = 3

let encode_meta b (m : meta) =
  Codec.bytes_ b m.atg_name;
  Codec.varint b m.generation;
  Codec.varint b m.epoch;
  Codec.list_
    (fun b (e, c) ->
      Codec.varint b e;
      Codec.varint b c)
    b m.boundaries

let decode_meta c =
  let atg_name = Codec.get_bytes c in
  let generation = Codec.get_varint c in
  let epoch = Codec.get_varint c in
  let boundaries =
    Codec.get_list
      (fun c ->
        let e = Codec.get_varint c in
        let b = Codec.get_varint c in
        (e, b))
      c
  in
  { atg_name; generation; epoch; boundaries }

let fsync_dir dir =
  (* persist the rename itself; directories cannot be fsynced on some
     systems (or sandboxes) — best effort, the data file is already safe *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let write ?(before_rename = fun () -> ()) ~path (m : meta) (db : Database.t)
    (store : Store.t) : int =
  let payload = Buffer.create (1 lsl 16) in
  encode_meta payload m;
  Codec.database payload db;
  Codec.store payload (Store.to_persisted store);
  let image = Buffer.create (Buffer.length payload + 16) in
  Buffer.add_string image magic;
  Buffer.add_char image (Char.chr version);
  Frame.add image (Buffer.contents payload);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     Rxv_fault.Io.hit "ckpt.write";
     Buffer.output_buffer oc image;
     flush oc;
     Rxv_fault.Io.fsync ~site:"ckpt.fsync" (Unix.descr_of_out_channel oc);
     close_out oc;
     before_rename ();
     Rxv_fault.Io.hit "ckpt.rename";
     Sys.rename tmp path
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir (Filename.dirname path);
  Buffer.length image

let read_image path =
  if not (Sys.file_exists path) then Error "no such file"
  else begin
    let ic = open_in_bin path in
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let mlen = String.length magic + 1 in
    if String.length s < mlen then Error "truncated preamble"
    else if String.sub s 0 (String.length magic) <> magic then
      Error "bad magic (not a checkpoint file)"
    else if Char.code s.[String.length magic] <> version then
      Error
        (Printf.sprintf "unsupported checkpoint version %d"
           (Char.code s.[String.length magic]))
    else
      (* self-written file on a trusted path: a legitimate checkpoint may
         exceed the socket-facing acceptance bound, so lift the limit to
         the writer cap *)
      match Frame.read_one ~limit:Frame.max_payload s ~pos:mlen with
      | `Record (payload, next) ->
          if next <> String.length s then
            Error "trailing garbage after checkpoint frame"
          else Ok payload
      | `End -> Error "empty checkpoint frame"
      | `Bad reason -> Error reason
  end

let read path =
  match read_image path with
  | Error _ as e -> e
  | Ok payload -> (
      let c = Codec.cursor payload in
      match
        let m = decode_meta c in
        let db = Codec.get_database c in
        let store = Store.of_persisted (Codec.get_store c) in
        if not (Codec.at_end c) then
          raise (Codec.Error "trailing bytes in checkpoint payload");
        (m, db, store)
      with
      | v -> Ok v
      | exception Codec.Error msg -> Error ("decode: " ^ msg)
      | exception Store.Dag_error msg -> Error ("store: " ^ msg))

let read_database path =
  match read_image path with
  | Error _ as e -> e
  | Ok payload -> (
      let c = Codec.cursor payload in
      match
        let m = decode_meta c in
        let db = Codec.get_database c in
        (m, db)
      with
      | v -> Ok v
      | exception Codec.Error msg -> Error ("decode: " ^ msg))

let read_meta path =
  match read_image path with
  | Error _ as e -> e
  | Ok payload -> (
      let c = Codec.cursor payload in
      match decode_meta c with
      | m -> Ok m
      | exception Codec.Error msg -> Error ("decode: " ^ msg))

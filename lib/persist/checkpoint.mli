(** Checkpoints: one atomic file holding the base database and the DAG
    store's persisted form, plus a small header (format magic/version,
    ATG name, generation, epoch history).

    L and M are deliberately {e not} serialized: both are rebuilt from
    the store on load ([Topo.of_store] / [Reach.compute]), which keeps
    the format simple and the file a fraction of the in-memory size —
    |M| alone is O(n²/64) words at full sharing.

    Writes are atomic: the image goes to [path ^ ".tmp"], is fsynced,
    and renamed over [path]; the directory is fsynced after the rename,
    so a crash leaves either the old file, the new file, or a stale
    [.tmp] that the next write overwrites — never a half checkpoint. The
    body is one CRC frame, so a torn or bit-rotted file is detected on
    read and reported as an error (recovery then falls back to an older
    generation). *)

module Database = Rxv_relational.Database
module Store = Rxv_dag.Store

type meta = {
  atg_name : string;
      (** the ATG is code, not data — recovery re-supplies it and the
          name guards against loading a checkpoint into the wrong one *)
  generation : int;
  epoch : int;  (** replication epoch (term) at checkpoint time *)
  boundaries : (int * int) list;
      (** epoch-transition history as [(epoch, start_commit)] pairs,
          ascending — carried in the image because checkpoint rotation
          deletes the WAL that recorded the transitions, and a rejoining
          ex-primary needs the boundary to know where to truncate *)
}

val write :
  ?before_rename:(unit -> unit) ->
  path:string ->
  meta ->
  Database.t ->
  Store.t ->
  int
(** serialize atomically; returns the file size in bytes.

    [before_rename] runs after the image is written and fsynced to the
    temporary file but before the rename makes it the recovery root —
    the hook point where {!Persist.checkpoint} durably seeds the new
    generation's WAL (e.g. with a session snapshot), so that no crash
    window exists in which the new checkpoint is authoritative but its
    WAL-side state is missing. If the hook raises, the temporary file is
    removed and the old generation stays authoritative. *)

val read : string -> (meta * Database.t * Store.t, string) result
(** load and decode; [Error] on any damage (missing file, bad magic,
    CRC mismatch, decode failure, store invariant violation) *)

val read_meta : string -> (meta, string) result
(** header only — cheap generation/name probing without decoding the
    body *)

val read_database : string -> (meta * Database.t, string) result
(** meta + base database only, skipping the store decode — what a
    recovery-by-recomputation baseline (republish from base data) needs;
    integrity is still the whole-frame CRC *)

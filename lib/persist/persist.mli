(** Durability for the view engine: a directory holding generation-paired
    checkpoint and WAL files.

    Layout: [checkpoint-<gen>.rxc] (atomic image of the base database and
    DAG store, see {!Checkpoint}) next to [wal-<gen>.rxl] (the log of
    groups committed {e since} that image, see {!Wal}). A WAL is only
    meaningful against its own generation's checkpoint, so
    {!checkpoint} bumps the generation, starts a fresh log, and deletes
    older pairs once the new image is safely on disk. Generation 0 is the
    deterministic initial publication — [wal-0.rxl] replays onto a fresh
    engine, so logging works before the first checkpoint is ever taken.

    Each WAL group record is one committed update group with a nonempty
    concatenated ΔR. Replay goes through
    {!Rxv_core.Base_update.apply}, which applies ΔR and repairs the view
    incrementally — the view is a function of the database, so redo
    needs no view-level log. *)

module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg
module Engine = Rxv_core.Engine

type t

type origin = {
  o_client : string;  (** client id (opaque, client-chosen) *)
  o_seq : int;  (** client-assigned request sequence number *)
  o_commit : int;  (** server commit number the group landed as *)
  o_reports : int;  (** how many per-update reports the group produced *)
}
(** provenance of one logged group, for exactly-once retry dedup: stored
    {e inside} the group's WAL record so that any replayed log prefix
    yields a dedup table consistent with the replayed database *)

type session = {
  sess_client : string;
  sess_seq : int;
  sess_commit : int;
  sess_reports : int;
  sess_delta : int;  (** ops in the committed group (for replay answers) *)
}
(** one dedup-table entry — the latest acknowledged request per client *)

type record =
  | Group of {
      epoch : int;
      origin : origin option;
      group : Group_update.t;
    }
      (** a committed update group: the replication epoch it committed
          under, optional client provenance, ΔR ops *)
  | Sessions of { last_commit : int; sessions : session list }
      (** dedup-table snapshot — first record of each generation's WAL,
          carrying the table across checkpoint rotation *)
  | Epoch of { epoch : int; boundary : int }
      (** an epoch transition (promotion fence): [boundary] is the last
          commit of the previous epoch; any local commit beyond it on a
          deposed primary is an unreplicated suffix to truncate *)

val open_dir : ?sync:Wal.sync_policy -> string -> t
(** open (creating if needed) a durability directory; the current
    generation is the newest checkpoint present, or 0. [sync] (default
    [EveryN 64]) governs WAL appends. The current WAL is scanned
    (best-effort) to seed {!recovered_sessions} and
    {!recovered_last_commit}. *)

val dir : t -> string
val sync_policy : t -> Wal.sync_policy
val generation : t -> int

val records_since_checkpoint : t -> int
(** valid records in the current generation's WAL (replayed + appended) *)

val attach : ?deferred_sync:bool -> t -> Engine.t -> unit
(** install the engine's WAL hook: every committed update group appends
    one record to the current log. Call after {!recover} (or on a fresh
    engine); appends land after any replayed tail.

    With [~deferred_sync:true] appends bypass the sync policy entirely
    ({!Wal.append_nosync}): records are buffered until an explicit
    {!sync}. This is the group-commit mode — a batching caller applies a
    whole batch of commits, then pays one device sync for all of them.
    Until that {!sync} returns, the batch is {e not} durable, so callers
    must withhold acknowledgements accordingly. *)

val sync : t -> unit
(** fsync the current WAL writer now (no-op when nothing is open) — the
    second half of the [deferred_sync] contract *)

val set_origin : t -> origin option -> unit
(** stage provenance for the {e next} appended record (the batcher sets
    it immediately before applying a client-originated group). The staged
    origin is consumed — successfully logged or discarded — by that one
    append; it never leaks into a later record. *)

val recovered_sessions : t -> session list
(** the dedup table implied by the last {!recover}/{!open_dir} scan of
    the current WAL: the newest [Sessions] snapshot overlaid with every
    later record's origin *)

val recovered_last_commit : t -> int
(** highest commit number implied by that scan (0 when none): the
    maximum of the origin-carried commit numbers and [recovered_base +
    group records since the snapshot] — the record-counting arm numbers
    origin-less groups too, which is what makes replication positions
    (one commit = one record) survive restarts *)

val recovered_base : t -> int
(** the current generation's starting commit number — the [last_commit]
    of the head-of-WAL [Sessions] snapshot (0 for generation 0). The
    k-th group record of the generation's WAL is commit [base + k]. *)

val epoch : t -> int
(** the replication epoch this directory's history has reached: the
    maximum over the checkpoint header, logged transition records, and
    the epoch stamps on replicated group records *)

val boundaries : t -> (int * int) list
(** the known epoch-transition history, [(epoch, start_commit)]
    ascending — from logged {!record.Epoch} records merged with the
    checkpoint header's carried copy *)

val boundary_for : t -> for_epoch:int -> int option
(** the last commit a peer stuck at [for_epoch] provably shares with
    this history: the boundary of the earliest recorded transition
    beyond its epoch. [None] when the peer is current (nothing to
    fence); [Some 0] when its epoch predates every boundary still known
    (only a full resync is safe). *)

type tap = {
  on_group : string -> unit;
      (** one call per appended group record, in commit order, with the
          exact encoded payload — what a replication feed streams *)
  on_rotate : generation:int -> base:int -> unit;
      (** fired after {!checkpoint} rotates to a new generation whose
          WAL starts at commit number [base] *)
  on_reset : generation:int -> base:int -> unit;
      (** fired when the directory's history is {e replaced} rather than
          extended — {!install_checkpoint} or {!reset_empty} on a
          durable follower — so a shadowing feed can discard its window
          and restart at [base] *)
}
(** observer of the durable record stream (replication feed hook) *)

val set_tap : t -> tap option -> unit
(** install or clear the stream observer; callbacks run on the
    appending thread (the batcher's exclusive section) and must be
    cheap and non-raising *)

val checkpoint : ?sessions:session list * int -> t -> Engine.t -> int
(** write a new-generation checkpoint atomically, rotate to a fresh WAL,
    delete superseded generations, reset the record counter; returns the
    checkpoint size in bytes.

    [sessions] is the live dedup table and last commit number to carry
    into the new generation (default: the values recovered at open). It
    is appended to the new WAL and fsynced {e before} the rename that
    makes the new checkpoint authoritative, closing the crash window in
    which already-acknowledged requests could be re-accepted. *)

type recovery_info = {
  r_generation : int;
  r_checkpoint : bool;  (** false: no checkpoint existed, fresh init *)
  r_replayed : int;  (** WAL records re-applied *)
  r_truncated : bool;  (** a torn/corrupt WAL tail was cut off *)
}

val pp_recovery_info : Format.formatter -> recovery_info -> unit

val recover :
  ?seed:int ->
  t ->
  Atg.t ->
  init:(unit -> Database.t) ->
  (Engine.t * recovery_info, string) result
(** rebuild an engine from disk: load the newest readable checkpoint
    (falling back generation by generation past corrupt ones), replay its
    WAL tail — truncating at the first torn or CRC-failing record — and
    return the recovered engine. When no checkpoint file exists at all,
    [init ()] supplies the initial database, the engine is published
    fresh (generation 0), and [wal-0.rxl] replays onto it. [Error] if
    every checkpoint is unreadable or a logged record fails to decode or
    re-apply.

    [seed] is accepted and ignored: the engine carries no solver seed
    (insertion translation has one deterministic solver path), but
    [perfbench/traced.ml] still passes one and the benchmark sources
    stay fixed across changes to the program. *)

val close : t -> unit
(** sync and close the current WAL writer, detaching nothing — call
    {!Engine.detach_wal} separately if the engine outlives the log *)

(** {2 Replication support} *)

val read_group_tail :
  t -> after:int -> max:int -> (string list, [ `Reset of int ]) result
(** encoded group payloads for commits [after+1 .. after+max], read back
    from the current generation's WAL file (the catch-up path when a
    follower has fallen behind the in-memory feed). The generation base
    is re-derived from the head-of-WAL [Sessions] snapshot; [Error
    (`Reset base)] when [after < base] — the caller must ship the
    checkpoint instead. Bound [max] by the durable watermark: records
    not yet fsynced must not be served. *)

val checkpoint_blob : t -> (int * int * string) option
(** [(generation, base, bytes)] of the current checkpoint image file,
    for shipping to a bootstrapping follower — [None] at generation 0
    (followers re-initialize deterministically and replay from commit
    0). Serialize calls against {!checkpoint}, which deletes superseded
    images. *)

val append_raw : t -> string -> unit
(** append one already-encoded record verbatim (buffered; pair with
    {!sync}) — the durable follower's apply path. The primary's epoch
    and origin stamps are preserved byte for byte, so the
    follower's log is promotable: commit numbering and the dedup
    lineage carry over unchanged. Non-group payloads are ignored. *)

val append_epoch : t -> epoch:int -> boundary:int -> unit
(** durably log an epoch transition (appended and fsynced immediately)
    and adopt [epoch] for subsequently appended records — the promotion
    fence; call {e before} accepting the first write of the new epoch *)

val discard_after : t -> commit:int -> int
(** truncate the current generation's WAL at the commit boundary: every
    group record numbered beyond [commit] (and anything after it) is
    physically discarded, via the same prefix-truncation move as
    torn-tail repair. The divergence-repair step of a deposed primary
    rejoining as a follower. Closes the current writer; returns the
    number of commits discarded. *)

val install_checkpoint :
  t -> generation:int -> base:int -> sessions:session list -> string -> unit
(** adopt a primary-shipped checkpoint image as this directory's
    recovery root: write it (atomically) as [generation]'s checkpoint,
    start a fresh WAL seeded with a [sessions] snapshot at commit
    [base], and delete every other generation. Fires the tap's
    [on_reset]. *)

val reset_empty : t -> unit
(** drop every generation and return to an empty generation-0 directory
    (the durable mirror of a follower's fresh-init reset); known epoch
    history is kept in memory. Fires the tap's [on_reset]. *)

(** {2 Record codec} — exposed for tests and crash-injection harnesses *)

val encode_record : ?origin:origin -> ?epoch:int -> Group_update.t -> string
(** [epoch] defaults to 0 (the pre-failover era) *)

val encode_sessions_record : last_commit:int -> session list -> string
val encode_epoch_record : epoch:int -> boundary:int -> string

val decode_record : string -> record
(** @raise Codec.Error on malformed payload *)

val wal_path : t -> int -> string
val checkpoint_path : t -> int -> string

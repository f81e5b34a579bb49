(** The follower half of WAL-streaming replication.

    A follower is a read-only {!Rxv_server.Server} (role [`Replica])
    whose state advances only by pulling the primary's committed WAL
    records over the wire and re-applying them through the same replay
    path recovery uses — so the follower's database is byte-equal to the
    primary's committed (durable) prefix at every published point.

    The state machine, driven by one background thread:

    - {b hello} — register with the primary and learn its durable head
      and current epoch;
    - {b tail-stream} — [Repl_pull] batches of encoded group records
      (each one committed update group), decode, concatenate, apply
      under the server's exclusive side ({!Rxv_core.Base_update.apply}
      repairs the view incrementally), and publish a fresh MVCC
      snapshot gating reads up to the new commit number. With
      [persist], each pulled record is also appended {e verbatim} to
      the follower's own WAL and synced before the
      position advances — the local log stays byte-identical to the
      primary's committed prefix, which is what makes the node
      promotable — and each record's client origin is folded into the
      local {!Rxv_server.Dedup} table so exactly-once retries survive a
      promotion;
    - {b reset} — when the pull position predates the primary's horizon
      (its WAL rotated), install the shipped checkpoint image in place
      ({!Rxv_core.Engine.reset_from}) together with its dedup snapshot —
      or, before any checkpoint exists, re-run the deterministic
      generation-0 publication — and resume tailing from the image's
      base commit;
    - {b divergence repair} — when a reply's epoch boundary shows our
      position extends past the last commit we provably share with the
      primary (we are a deposed primary rejoining, or inherited such a
      log), truncate the diverged suffix ({!Rxv_persist.Persist.discard_after}),
      durably record the new epoch, rebuild the engine from the surviving
      prefix, and resume as an ordinary follower;
    - {b election} (opt-in) — when the primary has been silent past
      [auto_promote] seconds, probe [peers] and call
      {!Rxv_server.Server.promote} if no reachable peer has applied
      more (ties break by name). The promote hook stops this loop first,
      so the adopted position is frozen.

    Each pull doubles as a progress acknowledgement, so the primary's
    per-follower lag gauges need no separate ACK traffic. Transport
    failures reconnect with the client's capped backoff; an apply
    failure the boundary did not explain falls back to a full
    re-initialization from commit 0, which the primary answers with a
    checkpoint reset. *)

module Server = Rxv_server.Server
module Persist = Rxv_persist.Persist
module Database = Rxv_relational.Database

type t

val start :
  ?pull_max:int ->
  ?wait_ms:int ->
  ?fp_prefix:string ->
  ?persist:Persist.t ->
  ?auto_promote:float ->
  ?peers:(string * Server.address) list ->
  name:string ->
  primary:Server.address ->
  init:(unit -> Database.t) ->
  Server.t ->
  t
(** spawn the replication loop feeding [server] (which must run with
    role [`Replica] and the {e same} ATG and generation-0 [init] as
    the primary — checkpoint installs verify the ATG name). Installs
    the server's promote hook (stop this loop) and leader hint (the
    [primary] address), so {!Rxv_server.Server.promote} and [Fenced]
    redirects work out of the box.

    [pull_max] (default 512) records per pull; [wait_ms] (default 200)
    long-poll when caught up — also bounds {!stop} latency. [fp_prefix]
    routes the stream socket's I/O through {!Rxv_fault} sites
    ([<prefix>.read]/[<prefix>.write]). [name] identifies this follower
    in the primary's gauges and breaks election ties.

    [persist] makes the follower durable: pulled records are mirrored
    verbatim into this directory (which must be the one [server]'s
    engine was recovered from, so positions agree) and the server can be
    promoted with full exactly-once and fencing state. The caller must
    {e not} have attached the engine's WAL hook on this directory — the
    follower owns the log while the node is a replica.

    [auto_promote] (off by default) arms the election described above;
    [peers] lists the other replicas' client addresses for the
    most-caught-up check. *)

val after : t -> int
(** last commit number applied and published *)

val head_seen : t -> int
(** the primary's durable head as of the last reply (0 before hello) *)

val lag : t -> int
(** [max 0 (head_seen - after)] *)

val epoch : t -> int
(** highest replication epoch witnessed (the server's, kept in sync) *)

val resets : t -> int
(** checkpoint installs / re-initializations performed *)

val repairs : t -> int
(** divergence repairs performed (truncate-and-rejoin after fencing) *)

val reconnects : t -> int
(** stream connections established over the follower's lifetime *)

val last_error : t -> string option
(** most recent stream error (cleared by the next successful pull) *)

val stop : t -> unit
(** signal the loop, join the thread, close the stream connection. The
    server keeps serving (stale) reads; stop it separately. Safe to call
    from the follower thread itself (the self-promotion path): the join
    is skipped and the loop exits at its next check. *)

(** A readers-writer lock with batch-fair admission.

    Readers share the lock; a writer excludes everyone. Acquisition is
    writer-preferring (a waiting writer blocks {e new} readers, so a
    steady read stream cannot starve the single group-commit writer),
    but with one fairness twist: when a writer releases, every reader
    that queued during that write phase is admitted {e before} the next
    write phase begins. Under a saturated update queue the write lock is
    re-taken batch after batch; without the admission rule those readers
    would wait forever.

    Built on [Mutex]/[Condition] from [threads.posix] only, so it
    behaves identically on OCaml 4.14 and 5.x runtimes. *)

type t

val create : unit -> t

val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit

val with_read : t -> (unit -> 'a) -> 'a
(** run [f] holding the lock in shared mode; always released *)

val with_write : t -> (unit -> 'a) -> 'a
(** run [f] holding the lock exclusively; always released *)

val readers : t -> int
(** readers currently holding the lock. Backed by an [Atomic.t], so a
    stats thread reading it without the internal mutex sees an exact
    (if instantly stale) count — not the torn value the old plain-field
    "racy snapshot" could return. *)

(** Readers-writer lock with batch-fair admission. *)

type t = {
  m : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  readers : int Atomic.t;  (* holders in shared mode *)
  mutable writer : bool;  (* a holder in exclusive mode *)
  mutable waiting_writers : int;
  mutable waiting_readers : int;
  mutable reader_tokens : int;
      (* admissions issued at the last write-phase exit: readers that
         queued during the phase may enter even though another writer is
         already waiting; each entry consumes one token, so the next
         write phase starts only after that cohort has been served *)
}

let create () =
  {
    m = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    readers = Atomic.make 0;
    writer = false;
    waiting_writers = 0;
    waiting_readers = 0;
    reader_tokens = 0;
  }

let read_lock t =
  Mutex.lock t.m;
  while t.writer || (t.waiting_writers > 0 && t.reader_tokens = 0) do
    t.waiting_readers <- t.waiting_readers + 1;
    Condition.wait t.can_read t.m;
    t.waiting_readers <- t.waiting_readers - 1
  done;
  if t.reader_tokens > 0 then t.reader_tokens <- t.reader_tokens - 1;
  Atomic.incr t.readers;
  Mutex.unlock t.m

let read_unlock t =
  Mutex.lock t.m;
  Atomic.decr t.readers;
  if Atomic.get t.readers = 0 then Condition.signal t.can_write;
  Mutex.unlock t.m

let write_lock t =
  Mutex.lock t.m;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writer || Atomic.get t.readers > 0 || t.reader_tokens > 0 do
    Condition.wait t.can_write t.m
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writer <- true;
  Mutex.unlock t.m

let write_unlock t =
  Mutex.lock t.m;
  t.writer <- false;
  (* admit the readers this write phase kept out before the next phase *)
  t.reader_tokens <- t.waiting_readers;
  Condition.broadcast t.can_read;
  Condition.signal t.can_write;
  Mutex.unlock t.m

let with_read t f =
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) f

let with_write t f =
  write_lock t;
  Fun.protect ~finally:(fun () -> write_unlock t) f

let readers t = Atomic.get t.readers

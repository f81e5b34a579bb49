(* The end-to-end run: launch the real [rxv serve] binary, drive it over
   Unix-domain sockets in closed loops, check every reply against the
   shadow model, and record client-observed latencies. No tracing here:
   the only clock reads are the two around each request. *)

module Client = Rxv_server.Client
module Proto = Rxv_server.Proto
module W = Workload

let now = Unix.gettimeofday

type server = { pid : int; sock : string; wal : string; mutable alive : bool }

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let spawn ~cli ~work ~size ~tag =
  let wal = Filename.concat work ("wal-" ^ tag) in
  rm_rf wal;
  Unix.mkdir wal 0o755;
  let sock = Filename.concat work (tag ^ ".sock") in
  rm_rf sock;
  let log =
    Unix.openfile
      (Filename.concat work (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let args =
    [| cli; "serve"; "-s"; "synth"; "-n"; string_of_int size; "--seed";
       string_of_int W.dataset_seed; "--wal"; wal; "--sync"; "always";
       "--socket"; sock |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process cli args Unix.stdin log log)
  in
  { pid; sock; wal; alive = true }

let reap srv =
  if srv.alive then begin
    srv.alive <- false;
    ignore (Unix.waitpid [] srv.pid)
  end

let kill srv =
  if srv.alive then begin
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap srv
  end

(* poll for the socket every 2 ms: the client library's own backoff grows
   to 100 ms steps, too coarse for a sub-second set-up time *)
let connect srv =
  let deadline = now () +. 150. in
  let rec go () =
    (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ -> ()
    | _ ->
        srv.alive <- false;
        failwith "rxv serve exited during set-up (see its .log)");
    match Client.connect ~retries:0 srv.sock with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Thread.delay 0.002;
        go ()
  in
  go ()

let shutdown srv c =
  Client.shutdown c;
  Client.close c;
  reap srv

(* spawn → first Pong *)
let start ~cli ~work ~size ~tag =
  let t0 = now () in
  let srv = spawn ~cli ~work ~size ~tag in
  match connect srv with
  | c ->
      Client.ping c;
      (srv, c, now () -. t0)
  | exception e ->
      kill srv;
      raise e

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

type sample = {
  kind : W.kind;
  shape : W.shape;
  ms : float;
  at : float;  (** when the request was sent (Unix time) *)
}

(* the bookkeeping shared by the streams of one run *)
type tally = {
  m : Mutex.t;
  mutable samples : sample list;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, for the report *)
  mutable acked : int;  (** acknowledged writes, warm-up included *)
  mutable answered : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* [what] names the failed operation (or stream) in the report *)
let fail t what msg =
  locked t (fun () ->
      t.failed <- t.failed + 1;
      if List.length t.failures < 8 then
        t.failures <- Printf.sprintf "%s: %s" what msg :: t.failures)

let op_label (op : W.op) = W.kind_name op.W.kind ^ " " ^ op.W.path

let wire_op (op : W.op) =
  match op.W.kind with
  | W.Insert ->
      Proto.Insert
        { etype = "c"; attr = Rxv_workload.Synth.c_attr op.W.key; path = op.W.path }
  | _ -> Proto.Delete op.W.path

(* one connection's executor. Only one connection of a run writes, so
   the commit numbers it is acknowledged with must be consecutive. *)
let executor (pl : W.plan) t c =
  let model = pl.W.model in
  let req_seq = ref 0 and last_commit = ref 0 in
  fun ~timed (op : W.op) ->
    locked t (fun () -> t.attempted <- t.attempted + 1);
    let record at ms =
      if timed then
        locked t (fun () ->
            t.samples <- { kind = op.W.kind; shape = op.W.shape; ms; at } :: t.samples)
    in
    if W.is_write op.W.kind then begin
      if not (W.write_applicable model op) then
        fail t (op_label op) "shadow model: the write would select nothing"
      else begin
        incr req_seq;
        let req =
          Proto.Update
            {
              client = Client.client_id c;
              req_seq = !req_seq;
              epoch = 0;
              policy = `Abort;
              ops = [ wire_op op ];
            }
        in
        let t0 = now () in
        let r = Client.request c req in
        let ms = (now () -. t0) *. 1000. in
        match r with
        | Proto.Applied { seq; reports = 1; delta_ops }
          when delta_ops >= 1 && seq = !last_commit + 1 ->
            last_commit := seq;
            W.ack_write model op;
            locked t (fun () -> t.acked <- t.acked + 1);
            record t0 ms
        | r -> fail t (op_label op) (Format.asprintf "%a" Proto.pp_response r)
      end
    end
    else begin
      let expect = W.expected_count model op in
      let t0 = now () in
      let r = Client.request c (Proto.Query op.W.path) in
      let ms = (now () -. t0) *. 1000. in
      match r with
      | Proto.Selected { count; _ } when count = expect ->
          locked t (fun () -> t.answered <- t.answered + 1);
          record t0 ms
      | Proto.Selected { count; _ } ->
          fail t (op_label op) (Printf.sprintf "count %d, shadow model predicts %d" count expect)
      | r -> fail t (op_label op) (Format.asprintf "%a" Proto.pp_response r)
    end

let view_shape (st : Proto.server_stats) =
  (st.Proto.st_nodes, st.Proto.st_edges, st.Proto.st_m_size, st.Proto.st_l_size)

let get_stats c =
  match Client.stats c with Ok st -> st | Error m -> failwith ("STATS: " ^ m)

let recover_check ~cli ~work ~size wal =
  let log =
    Unix.openfile
      (Filename.concat work "recover.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let args =
    [| cli; "recover"; "-s"; "synth"; "-n"; string_of_int size; "--seed";
       string_of_int W.dataset_seed; "--wal"; wal; "--check" |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () -> Unix.create_process cli args Unix.stdin log log)
  in
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false

let run ~cli ~work ~setups ~seconds (pl : W.plan) =
  let size = pl.W.spec.W.size in
  (* [setups] timed set-ups, spread around the window so that host speed
     drift during the run reaches their median: the last of the first half
     serves the window, the others are stopped again at once *)
  let times = ref [] in
  let timed_start k =
    let srv, c, s = start ~cli ~work ~size ~tag:(Printf.sprintf "s%d" k) in
    times := s :: !times;
    (srv, c)
  in
  let boot_only k =
    let srv, c = timed_start k in
    (try shutdown srv c with e -> kill srv; raise e);
    rm_rf srv.wal
  in
  let before = (setups + 1) / 2 in
  for k = 1 to before - 1 do
    boot_only k
  done;
  let srv, c = timed_start before in
  let readers = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter Client.close !readers;
      kill srv)
    (fun () ->
      let t =
        {
          m = Mutex.create ();
          samples = [];
          attempted = 0;
          failed = 0;
          failures = [];
          acked = 0;
          answered = 0;
        }
      in
      let initial = view_shape (get_stats c) in
      let wal0 = dir_bytes srv.wal in
      let exec = executor pl t c in
      W.warm_up pl exec;
      let warm_acked = t.acked and warm_answered = t.answered in
      let warm_attempted = t.attempted and warm_failed = t.failed in
      let t0 = now () in
      let deadline = t0 +. float_of_int seconds in
      let past () = now () >= deadline in
      let t_end =
        if pl.W.spec.W.mix = W.Mixed then begin
          let rc = Client.connect ~retries:0 srv.sock in
          readers := [ rc ];
          let reader_end = ref t0 in
          let reader =
            Thread.create
              (fun () ->
                (try W.reader_loop pl ~past (executor pl t rc)
                 with e -> fail t "reader connection" (Printexc.to_string e));
                reader_end := now ())
              ()
          in
          W.writer_loop pl ~past exec;
          let writer_end = now () in
          Thread.join reader;
          Float.max writer_end !reader_end
        end
        else begin
          W.run_sequential pl ~past exec;
          now ()
        end
      in
      let window_s = t_end -. t0 in
      let st = get_stats c in
      let counters = st.Proto.st_counters in
      let counter k = Option.value ~default:0 (List.assoc_opt k counters) in
      let rss_mb = vm_hwm_mb srv.pid in
      shutdown srv c;
      let wal_bytes = dir_bytes srv.wal - wal0 in
      let checks =
        [
          ("commit_counter", counter "applied" = t.acked);
          ("view_restored", view_shape st = initial);
        ]
        @
        if size <= 10_000 then
          [ ("recover_check", recover_check ~cli ~work ~size srv.wal) ]
        else []
      in
      rm_rf srv.wal;
      for k = before + 1 to setups do
        boot_only k
      done;
      let fresh_used =
        List.length (List.filter (fun s -> s.kind = W.Fresh) t.samples)
      in
      let open Jsonw in
      Obj
        [
          ("workload", String pl.W.spec.W.name);
          ("seed", Int pl.W.seed);
          ("digest", String (W.digest pl));
          ("setups_s", List (List.rev_map (fun s -> Float s) !times));
          ("window_s", Float window_s);
          ( "samples",
            List
              (List.rev_map
                 (fun s ->
                   List
                     [ String (W.kind_name s.kind); String (W.shape_name s.shape); Float s.ms;
                       Float (s.at -. t0) ])
                 t.samples) );
          ("attempted", Int (t.attempted - warm_attempted));
          ("failed", Int (t.failed - warm_failed));
          ("warmup_failed", Int warm_failed);
          ("failures", List (List.rev_map (fun s -> String s) t.failures));
          ("commits", Int (t.acked - warm_acked));
          ("queries", Int (t.answered - warm_answered));
          ("rss_mb", Float rss_mb);
          ("wal_bytes", Int wal_bytes);
          ("wal_commits", Int t.acked);
          ("server", Obj (List.map (fun (k, v) -> (k, Int v)) counters));
          ("checks", Obj (List.map (fun (k, v) -> (k, Bool v)) checks));
          ("fresh_wrapped", Bool (W.fresh_wrapped pl (max 0 (fresh_used - 1))));
        ])

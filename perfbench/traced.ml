(* The traced run: replay the end-to-end run's operation sequence in this
   process, calling the public functions the server's request path calls,
   with a span around each call. Spans stay in memory and are written out
   at the end, together with the counters the program already exposes.

   Per write:  Parser.parse → Engine.apply_group → Persist.sync →
               Engine.Snapshot.capture
   Per read:   Parser.parse → Engine.Snapshot.query (latest capture)

   Before each write and each fresh read, outside that operation's span,
   standalone probes time single layers on the pre-operation state:
   Validate, Dag_eval's two passes, and for deletions Xupdate.xdelete and
   Vdelete.translate (all pure). Insert translation is not probed: it
   would warm the engine's SAT cache. *)

module W = Workload
module Synth = Rxv_workload.Synth
module Engine = Rxv_core.Engine
module Dag_eval = Rxv_core.Dag_eval
module Eval_cache = Rxv_core.Eval_cache
module Validate = Rxv_core.Validate
module Xupdate = Rxv_core.Xupdate
module Vdelete = Rxv_core.Vdelete
module Vinsert = Rxv_core.Vinsert
module Persist = Rxv_persist.Persist
module Parser = Rxv_xpath.Parser
module Plan = Rxv_xpath.Plan
module Publish = Rxv_atg.Publish
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  parent : int;  (** -1: a root span *)
  op : int;  (** operation number; -1 for set-up *)
  t0 : float;
  t1 : float;
  attrs : (string * Jsonw.t) list;
}

type tracer = { origin : float; mutable next_id : int; mutable spans : span list }

let fresh_id tr =
  tr.next_id <- tr.next_id + 1;
  tr.next_id

(* [span tr ~op ~parent name f] times [f ()] as one span; [attrs] derives
   attributes from the result *)
let span ?(attrs = fun _ -> []) ?(parent = -1) ?id tr ~op name f =
  let id = match id with Some i -> i | None -> fresh_id tr in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  tr.spans <- { id; name; parent; op; t0; t1; attrs = attrs r } :: tr.spans;
  r

let f x = Jsonw.Float x
let i x = Jsonw.Int x
let s x = Jsonw.String x

let cache_class (before : Eval_cache.counters) (after : Eval_cache.counters) =
  if after.Eval_cache.misses > before.Eval_cache.misses then "miss"
  else if after.Eval_cache.partials > before.Eval_cache.partials then "partial"
  else if after.Eval_cache.hits > before.Eval_cache.hits then "hit"
  else "memo"

let run ~work ~seconds (pl : W.plan) =
  let spec = pl.W.spec in
  let tr = { origin = now (); next_id = 0; spans = [] } in
  let setup name fn = span tr ~op:(-1) ("setup." ^ name) fn in
  (* the set-up layers, called standalone on the workload's dataset *)
  let params = Synth.default_params ~seed:W.dataset_seed spec.W.size in
  let d = setup "synth.generate" (fun () -> Synth.generate params) in
  let atg = Synth.atg () in
  let () =
    let store = setup "publish" (fun () -> Publish.publish atg d.Synth.db) in
    let topo = setup "topo" (fun () -> Topo.of_store store) in
    ignore (setup "reach" (fun () -> Reach.compute store topo))
  in
  (* the engine, assembled as [rxv serve --wal DIR --sync always] does *)
  let dir = Filename.concat work "wal-traced" in
  E2e.rm_rf dir;
  let p = Persist.open_dir ~sync:Rxv_persist.Wal.Always dir in
  Fun.protect
    ~finally:(fun () ->
      Persist.close p;
      E2e.rm_rf dir)
    (fun () ->
      let e =
        setup "engine" (fun () ->
            match
              Persist.recover ~seed:W.dataset_seed p atg ~init:(fun () ->
                  (Synth.generate params).Synth.db)
            with
            | Ok (e, _) -> e
            | Error m -> failwith ("recovery: " ^ m))
      in
      Persist.attach ~deferred_sync:true p e;
      let snap = ref (Engine.Snapshot.capture e) in
      let model = pl.W.model in
      let failures = ref [] and attempted = ref 0 and commits = ref 0 in
      let fail (op : W.op) msg =
        failures := Printf.sprintf "%s %s: %s" (W.kind_name op.W.kind) op.W.path msg :: !failures
      in
      let op_no = ref 0 in
      let probe ~op (o : W.op) =
        let ast = Parser.parse o.W.path in
        let pspan ?attrs name fn = span ?attrs tr ~op ("probe." ^ name) fn in
        if W.is_write o.W.kind then
          ignore
            (pspan "validate" (fun () ->
                 match o.W.kind with
                 | W.Insert -> Validate.check_insert atg.Rxv_atg.Atg.dtd ~etype:"c" ast
                 | _ -> Validate.check_delete atg.Rxv_atg.Atg.dtd ast));
        let plan = Plan.compile ast in
        let tables = Dag_eval.create_tables plan in
        pspan "dag_eval.bottom_up" (fun () ->
            Dag_eval.bottom_up e.Engine.store e.Engine.topo plan tables);
        let ev =
          pspan "dag_eval.top_down"
            ~attrs:(fun ev -> [ ("selected", i (List.length ev.Dag_eval.selected)) ])
            (fun () -> Dag_eval.top_down e.Engine.store e.Engine.topo e.Engine.reach plan tables)
        in
        if o.W.kind = W.Delete then begin
          let delta_v =
            pspan "xupdate.xdelete" (fun () ->
                Xupdate.xdelete atg e.Engine.store ~arrival_edges:ev.Dag_eval.arrival_edges
                  ~selected:ev.Dag_eval.selected ~zero_move_match:ev.Dag_eval.zero_move_match)
          in
          ignore
            (pspan "vdelete.translate" (fun () ->
                 Vdelete.translate atg e.Engine.store ~delta_v))
        end
      in
      let exec ~timed (o : W.op) =
        incr attempted;
        incr op_no;
        let op = if timed then !op_no else -2 in
        if o.W.kind <> W.Repeat && o.W.kind <> W.Hit && timed then probe ~op o;
        let root = fresh_id tr in
        let child ?attrs name fn = span ?attrs tr ~op ~parent:root name fn in
        let kind = W.kind_name o.W.kind in
        let root_attrs = [ ("kind", s kind); ("shape", s (W.shape_name o.W.shape)) ] in
        if W.is_write o.W.kind then begin
          if not (W.write_applicable model o) then fail o "shadow model: the write would select nothing"
          else
            let outcome =
              span tr ~op ~id:root ("op." ^ kind) ~attrs:(fun _ -> root_attrs) (fun () ->
                  let ast = child "xpath.parse" (fun () -> Parser.parse o.W.path) in
                  let u =
                    match o.W.kind with
                    | W.Insert ->
                        Xupdate.Insert { etype = "c"; attr = Synth.c_attr o.W.key; path = ast }
                    | _ -> Xupdate.Delete ast
                  in
                  Persist.set_origin p
                    (Some
                       { Persist.o_client = "traced"; o_seq = !commits + 1;
                         o_commit = !commits + 1; o_reports = 1 });
                  let r =
                    child "engine.apply_group"
                      ~attrs:(function
                        | Ok [ (r : Engine.report) ] ->
                            let tm = r.Engine.timings in
                            [
                              ("eval_ms", f (tm.Engine.t_eval *. 1000.));
                              ("translate_ms", f (tm.Engine.t_translate *. 1000.));
                              ("maintain_ms", f (tm.Engine.t_maintain *. 1000.));
                              ("selected", i (List.length r.Engine.selected));
                              ("delta_r_rows", i (List.length r.Engine.delta_r));
                              ("sat_vars", i r.Engine.sat_vars);
                              ("sat_clauses", i r.Engine.sat_clauses);
                              ("sat_encode_ms", f r.Engine.sat_encode_ms);
                              ("sat_solve_ms", f r.Engine.sat_solve_ms);
                              ("sat_skeleton_hit", Jsonw.Bool r.Engine.sat_skeleton_hit);
                            ]
                        | _ -> [])
                      (fun () -> Engine.apply_group ~policy:`Abort e [ u ])
                  in
                  Persist.set_origin p None;
                  (match r with
                  | Ok [ _ ] -> child "persist.sync" (fun () -> Persist.sync p)
                  | _ -> ());
                  snap := child "snapshot.capture" (fun () -> Engine.Snapshot.capture e);
                  r)
            in
            match outcome with
            | Ok [ r ] when r.Engine.selected <> [] && r.Engine.delta_r <> [] ->
                incr commits;
                W.ack_write model o
            | Ok _ -> fail o "selected nothing"
            | Error (_, rej) -> fail o (Format.asprintf "%a" Engine.pp_rejection rej)
        end
        else begin
          let expect = W.expected_count model o in
          let before = Eval_cache.counters e.Engine.cache in
          let cache_attr _ =
            ("cache", s (cache_class before (Eval_cache.counters e.Engine.cache)))
            :: root_attrs
          in
          let r =
            span tr ~op ~id:root ("op." ^ kind) ~attrs:cache_attr (fun () ->
                let ast = child "xpath.parse" (fun () -> Parser.parse o.W.path) in
                child "snapshot.query" (fun () -> Engine.Snapshot.query !snap ast))
          in
          let got = List.length r.Dag_eval.selected in
          if got <> expect then
            fail o (Printf.sprintf "count %d, shadow model predicts %d" got expect)
        end
      in
      W.warm_up pl exec;
      let warm_attempted = !attempted and warm_failed = List.length !failures in
      let wal_file_bytes () = E2e.dir_bytes dir in
      let wal0 = wal_file_bytes () and commits0 = !commits in
      let cache0 = Eval_cache.counters e.Engine.cache in
      let sat0 = Vinsert.counters e.Engine.sat in
      let gc0 = Gc.quick_stat () in
      let t0 = now () in
      let deadline = t0 +. float_of_int seconds in
      let past () = now () >= deadline in
      W.run_sequential pl ~past exec;
      let window_s = now () -. t0 in
      let gc1 = Gc.quick_stat () in
      let cache1 = Eval_cache.counters e.Engine.cache in
      let sat1 = Vinsert.counters e.Engine.sat in
      let st = Engine.stats e in
      let ops = !attempted - warm_attempted in
      let counters =
        [
          ("ops", i ops);
          ("commits", i (!commits - commits0));
          ("eval_cache.hits", i (cache1.Eval_cache.hits - cache0.Eval_cache.hits));
          ("eval_cache.partials", i (cache1.Eval_cache.partials - cache0.Eval_cache.partials));
          ("eval_cache.misses", i (cache1.Eval_cache.misses - cache0.Eval_cache.misses));
          ("eval_cache.evictions", i (cache1.Eval_cache.evictions - cache0.Eval_cache.evictions));
          ("sat.warm_starts", i (sat1.Vinsert.warm_starts - sat0.Vinsert.warm_starts));
          ("sat.learned_kept", i (sat1.Vinsert.learned_kept - sat0.Vinsert.learned_kept));
          ("dag.nodes", i st.Engine.n_nodes);
          ("dag.edges", i st.Engine.n_edges);
          ("reach.m_size", i st.Engine.m_size);
          ("persist.wal_bytes_total", i (wal_file_bytes () - wal0));
          ("gc.minor_words", f (gc1.Gc.minor_words -. gc0.Gc.minor_words));
          ("gc.major_collections", i (gc1.Gc.major_collections - gc0.Gc.major_collections));
          ("gc.heap_mb", f (float_of_int (gc1.Gc.heap_words * (Sys.word_size / 8)) /. 1048576.));
        ]
      in
      let span_json sp =
        Jsonw.Obj
          ([
             ("id", i sp.id);
             ("name", s sp.name);
             ("parent", i sp.parent);
             ("op", i sp.op);
             ("start_ms", f ((sp.t0 -. tr.origin) *. 1000.));
             ("end_ms", f ((sp.t1 -. tr.origin) *. 1000.));
           ]
          @ sp.attrs)
      in
      let failed = List.length !failures in
      let open Jsonw in
      Obj
        [
          ("workload", String spec.W.name);
          ("seed", Int pl.W.seed);
          ("digest", String (W.digest pl));
          ("window_s", Float window_s);
          ("attempted", Int ops);
          ("failed", Int (failed - warm_failed));
          ("warmup_failed", Int warm_failed);
          ("failures", List (List.map (fun m -> String m) (List.rev !failures)));
          ("counters", Obj counters);
          ("spans", List (List.rev_map span_json tr.spans));
        ])

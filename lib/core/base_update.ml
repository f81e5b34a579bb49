(** Incremental maintenance of the published view under *direct*
    relational updates — the other direction of Fig. 3.

    The paper's framework assumes the XML view tracks its base data (its
    reference [8], "Incremental evaluation of schema-directed XML
    publishing", by the same authors); a deployment needs both: updates
    through the view (Engine.apply) and updates below it. Given a group
    update ΔR, this module repairs the DAG store, its provenance, and the
    auxiliary structures L and M without republishing:

    + {b impact analysis} — for every star rule and every changed tuple,
      the affected parents are found by re-evaluating the rule with the
      changed tuple pinned to its key and projecting the parameter-binding
      columns (deletions are analysed against the pre-state, insertions
      against the post-state);
    + {b differential expansion} — each affected parent's rule is
      re-evaluated; added children are published (new subtrees expand
      exactly as in Xinsert) and removed children unlinked; provenance
      rows are refreshed;
    + {b maintenance} — Δ(M,L)insert / Δ(M,L)delete per change, exactly as
      for view updates.

    Rejected when the new data would make the view infinite (a cycle) —
    in that case ΔR is rolled back and nothing changes. *)

module Store = Rxv_dag.Store
module Topo = Rxv_dag.Topo
module Reach = Rxv_dag.Reach
module Maintain = Rxv_dag.Maintain
module Value = Rxv_relational.Value
module Tuple = Rxv_relational.Tuple
module Schema = Rxv_relational.Schema
module Spj = Rxv_relational.Spj
module Eval = Rxv_relational.Eval
module Database = Rxv_relational.Database
module Group_update = Rxv_relational.Group_update
module Atg = Rxv_atg.Atg
module Publish = Rxv_atg.Publish

type report = {
  affected_parents : int;
  edges_added : int;
  edges_removed : int;
  nodes_deleted : int;
}

(* For rule [q] of parent type [a_type], the parents whose child set may
   involve the tuple keyed [key] in relation occurrence [alias]: evaluate
   q with that occurrence pinned, projecting the parameter bindings. *)
(* [None] means the impact could not be localized (a parameter without a
   column binding): the caller must treat every live parent as affected. *)
let affected_params (db : Database.t) (schema : Schema.db) (atg : Atg.t)
    a_type (q : Spj.t) alias (rname : string) (key : Value.t list) :
    Tuple.t list option =
  let nparams = Array.length (Atg.attr_tys atg a_type) in
  let rel = Schema.find_relation schema rname in
  let key_names = Schema.key_names rel in
  let pin =
    List.map2
      (fun attr v -> Spj.eq (Spj.col alias attr) (Spj.const v))
      key_names key
  in
  (* param bindings: a column equated with each $k *)
  let binding = Array.make nparams None in
  List.iter
    (fun (Spj.Eq (x, y)) ->
      match (x, y) with
      | Spj.Col (al, at), Spj.Param k | Spj.Param k, Spj.Col (al, at) ->
          if k < nparams && binding.(k) = None then binding.(k) <- Some (al, at)
      | _ -> ())
    q.Spj.where;
  if nparams > 0 && Array.exists (fun b -> b = None) binding then None
  else begin
    let subst = function
      | Spj.Param k when k < nparams -> (
          match binding.(k) with Some (al, at) -> Spj.Col (al, at) | None -> assert false)
      | op -> op
    in
    let where' =
      pin
      @ List.filter_map
          (fun (Spj.Eq (x, y)) ->
            match (x, y) with
            | Spj.Col (al, at), Spj.Param k | Spj.Param k, Spj.Col (al, at)
              when k < nparams && binding.(k) = Some (al, at) ->
                None
            | _ -> Some (Spj.Eq (subst x, subst y)))
          q.Spj.where
    in
    let select' =
      List.init nparams (fun k ->
          match binding.(k) with
          | Some (al, at) -> (Printf.sprintf "$p%d" k, Spj.Col (al, at))
          | None -> assert false)
    in
    let select' =
      if select' = [] then [ ("$one", Spj.const (Value.Int 1)) ] else select'
    in
    let q' =
      Spj.make ~name:(q.Spj.qname ^ "#impact") ~from:q.Spj.from ~where:where'
        ~select:select'
    in
    let rows = Eval.run db q' () in
    if nparams = 0 then Some (if rows = [] then [] else [ [||] ])
    else Some (List.sort_uniq Tuple.compare rows)
  end

exception Would_cycle

(* Re-evaluate [parent]'s star rule and reconcile the store's edges.
   [plans] memoizes compiled rule plans across the parents of one ΔR. *)
let reconcile_parent (atg : Atg.t) (db : Database.t) (store : Store.t)
    (l : Topo.t) (m : Reach.t) ~(plans : (string, Eval.plan) Hashtbl.t)
    (b_type : string) (sr : Atg.star_rule) (parent : int) =
  let pattr = (Store.node store parent).Store.attr in
  let plan =
    let qname = sr.Atg.query.Spj.qname in
    match Hashtbl.find_opt plans qname with
    | Some p -> p
    | None ->
        let p = Eval.prepare db sr.Atg.query in
        Hashtbl.replace plans qname p;
        p
  in
  let rows = Eval.run_prepared db plan ~params:pattr () in
  (* desired children with their derivation rows *)
  let desired : (Tuple.t, Tuple.t list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun row ->
      let battr = Array.sub row 0 sr.Atg.attr_width in
      let prev = Option.value ~default:[] (Hashtbl.find_opt desired battr) in
      Hashtbl.replace desired battr (row :: prev))
    rows;
  (* current children of this type *)
  let current =
    List.filter
      (fun c -> (Store.node store c).Store.etype = b_type)
      (Store.children store parent)
  in
  let added = ref 0 and removed = ref 0 in
  let deleted_nodes = ref 0 in
  (* removals first *)
  List.iter
    (fun c ->
      let battr = (Store.node store c).Store.attr in
      if not (Hashtbl.mem desired battr) then begin
        ignore (Store.remove_edge store parent c);
        incr removed;
        let st = Maintain.on_delete store l m ~targets:[ c ] in
        deleted_nodes := !deleted_nodes + List.length st.Maintain.deleted_nodes
      end)
    current;
  (* additions and provenance refresh *)
  Hashtbl.iter
    (fun battr rows ->
      match Store.find_id store b_type battr with
      | Some c when Store.mem_edge store parent c ->
          (* kept edge: refresh derivations *)
          Store.set_provenance store parent c (List.rev rows)
      | existing -> (
          (* new child: expand its subtree, then link *)
          let root_id, subtree_nodes, new_nodes =
            Publish.publish_subtree atg db store b_type battr
          in
          (* cycle guard: the child's subtree must not reach the parent *)
          let reaches_parent =
            List.exists
              (fun s -> Reach.is_ancestor_or_self m s parent)
              subtree_nodes
            || (match existing with Some c -> c = parent | None -> false)
          in
          if reaches_parent then begin
            Xupdate.rollback_subtree store ~new_nodes;
            raise Would_cycle
          end;
          List.iter
            (fun row -> Store.add_edge store parent root_id ~provenance:(Some row))
            (List.rev rows);
          incr added;
          ignore
            (Maintain.on_insert store l m ~targets:[ parent ] ~root_id
               ~new_nodes)))
    desired;
  (!added, !removed, !deleted_nodes)

(** [apply engine delta_r] applies ΔR to the database and incrementally
    repairs the view. On failure (key violation, or the change would make
    the view cyclic) the database is restored and the view untouched. *)
let apply (e : Engine.t) (delta_r : Group_update.t) : (report, string) result
    =
  let atg = e.Engine.atg and db = e.Engine.db in
  let schema = atg.Atg.schema in
  let store = e.Engine.store and l = e.Engine.topo and m = e.Engine.reach in
  (* full inverse of ΔR, captured against the pre-state, for rollback *)
  let inverse =
    List.rev
      (List.filter_map
         (fun op ->
           match op with
           | Group_update.Insert (rname, t) ->
               let rel = Schema.find_relation schema rname in
               let key = Tuple.key_of rel t in
               if Database.mem_key db rname key then None
               else Some (Group_update.Delete (rname, key))
           | Group_update.Delete (rname, key) -> (
               match Database.find_by_key db rname key with
               | Some t -> Some (Group_update.Insert (rname, t))
               | None -> None))
         delta_r)
  in
  (* phase A: impact of deletions, against the pre-state *)
  let impacts : (string * string * Atg.star_rule * Tuple.t) list ref =
    ref []
  in
  let note_impacts op_rname key =
    List.iter
      (fun (a_type, b_type, sr) ->
        List.iter
          (fun (alias, rname) ->
            if rname = op_rname then
              let affected =
                match
                  affected_params db schema atg a_type sr.Atg.query alias
                    rname key
                with
                | Some params -> params
                | None ->
                    (* not localizable: every live parent of this type *)
                    List.map
                      (fun id -> (Store.node store id).Store.attr)
                      (Store.gen_ids store a_type)
              in
              List.iter
                (fun params ->
                  impacts := (a_type, b_type, sr, params) :: !impacts)
                affected)
          sr.Atg.query.Spj.from)
      (Atg.star_rules atg)
  in
  List.iter
    (function
      | Group_update.Delete (rname, key) -> note_impacts rname key
      | Group_update.Insert _ -> ())
    delta_r;
  (* apply ΔR *)
  (match Group_update.apply db delta_r with
  | () -> ()
  | exception Group_update.Apply_error msg -> failwith msg);
  (* phase B: impact of insertions, against the post-state *)
  List.iter
    (function
      | Group_update.Insert (rname, t) ->
          let rel = Schema.find_relation schema rname in
          note_impacts rname (Tuple.key_of rel t)
      | Group_update.Delete _ -> ())
    delta_r;
  (* deduplicate (rule, parent) pairs and keep only live parents *)
  let seen = Hashtbl.create 16 in
  let work = ref [] in
  List.iter
    (fun (a_type, b_type, sr, params) ->
      match Store.find_id store a_type params with
      | Some pid ->
          if not (Hashtbl.mem seen (a_type, b_type, pid)) then begin
            Hashtbl.replace seen (a_type, b_type, pid) ();
            work := (b_type, sr, pid) :: !work
          end
      | None -> () (* parent not in the view: nothing to repair *))
    !impacts;
  let added = ref 0 and removed = ref 0 and deleted = ref 0 in
  let plans = Hashtbl.create 8 in
  match
    List.iter
      (fun (b_type, sr, pid) ->
        if Store.mem_node store pid then begin
          let a, r, d = reconcile_parent atg db store l m ~plans b_type sr pid in
          added := !added + a;
          removed := !removed + r;
          deleted := !deleted + d
        end)
      !work
  with
  | () ->
      (* the repairs above went through Maintain directly, not through
         Engine.apply, so the query cache saw none of them: dirty
         everything (base updates are rare and batch-sized — precision
         is not worth threading every touched set out of reconcile) *)
      Eval_cache.invalidate_all e.Engine.cache
        ~slot_capacity:(Store.slot_capacity store);
      (* direct base updates are durable too: log the committed ΔR, like
         Engine.apply does for view updates (never inside an open
         transaction frame — the enclosing commit logs the whole group) *)
      (match e.Engine.wal with
      | Some hook
        when Rxv_relational.Journal.depth (Database.journal db) = 0
             && not (Group_update.is_empty delta_r) ->
          hook.Engine.on_commit delta_r
      | Some _ | None -> ());
      Ok
        {
          affected_parents = List.length !work;
          edges_added = !added;
          edges_removed = !removed;
          nodes_deleted = !deleted;
        }
  | exception Would_cycle ->
      (* restore the database, then reconcile the same parents against the
         restored state — reconciliation is idempotent, so this undoes the
         partial store changes; a garbage sweep clears any orphaned
         expansion remnants *)
      Group_update.apply db inverse;
      List.iter
        (fun (b_type, sr, pid) ->
          if Store.mem_node store pid then
            ignore (reconcile_parent atg db store l m ~plans b_type sr pid))
        !work;
      ignore (Maintain.collect_garbage store l m);
      (* the store was mutated and restored by re-reconciliation, and the
         collector may have recycled slots: dirty everything here too *)
      Eval_cache.invalidate_all e.Engine.cache
        ~slot_capacity:(Store.slot_capacity store);
      Error "base update would make the view cyclic (rolled back)"

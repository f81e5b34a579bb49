(** SPJ query evaluation over concrete databases.

    Evaluation is split into a compile step and a run step. {!prepare}
    resolves a query against the schema once — alias positions, column
    indexes, and the per-level split of the WHERE conjunction into local
    filters, hash-join keys and residual predicates — producing a {!plan}.
    {!run_prepared} executes a plan as a left-deep pipeline: each level
    either scans its relation or probes the relation's persistent
    secondary index ({!Relation.index_on}) with a key assembled from the
    already-bound prefix plus any constant/parameter equality pins on that
    level. The join order is chosen greedily at compile time: a pinned
    alias binds first (an index probe, not a scan), then aliases joinable
    to the bound prefix. This matters for the selective queries the
    incremental engine issues constantly — a star rule pinned by its
    parent parameters ([h.h1 = $0]) or an impact query pinned by a changed
    tuple's key touches O(result) tuples instead of scanning the largest
    relation in FROM order. Hash joins keep the evaluator linear per
    joined pair, which is what lets the benchmark sweeps of Section 5 reach
    100K-tuple bases; compiling once and reusing the relation-resident
    indexes removes the per-call name resolution and index rebuilds that
    dominated repeated rule evaluation. *)

type env = Tuple.t array
(** one bound tuple per FROM position *)

exception Eval_error of string

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

(** {2 Compilation} *)

(** compiled operand: every name resolved to positions *)
type cop =
  | C_const of Value.t
  | C_param of int
  | C_col of int * int  (** (FROM position, column index) *)

type step = {
  s_rname : string;  (** relation to bind at this level *)
  s_build_cols : int list;
      (** this alias's join-key columns; [] = no join, scan *)
  s_probe : cop list;  (** probe-key operands over the bound prefix *)
  s_filters : (cop * cop) list;
      (** residual equalities checkable once this level is bound *)
}

type plan = {
  p_qname : string;
  p_n : int;
  p_steps : step array;
  p_select : cop array;
}

let alias_position (q : Spj.t) alias =
  let rec go i = function
    | [] -> eval_error "query %s: unbound alias %s" q.Spj.qname alias
    | (a, _) :: _ when a = alias -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 q.Spj.from

(* Column position of [alias.attr] inside that alias's tuple. *)
let col_index schema (q : Spj.t) alias attr =
  let r = Schema.find_relation schema (Spj.relation_of_alias q alias) in
  Schema.attr_index r attr

(* A WHERE conjunct, classified by the original FROM positions it
   mentions. [Pin] is an equality between one alias's column and a
   constant or parameter — usable as an index-probe component the moment
   that alias binds, which is what lets a pinned alias open the pipeline
   with a point lookup instead of a scan. *)
type pred_class =
  | P_join of int * string * int * string  (** pos_a, attr_a, pos_b, attr_b *)
  | P_pin of int * string * Spj.operand  (** pos, attr, const/param *)
  | P_local of int  (** both sides on one position (or no columns) *)

let classify_pred q (Spj.Eq (a, b)) =
  match (a, b) with
  | Spj.Col (aa, at), Spj.Col (ba, bt) ->
      let pa = alias_position q aa and pb = alias_position q ba in
      if pa = pb then P_local pa else P_join (pa, at, pb, bt)
  | Spj.Col (aa, at), ((Spj.Const _ | Spj.Param _) as op)
  | ((Spj.Const _ | Spj.Param _) as op), Spj.Col (aa, at) ->
      P_pin (alias_position q aa, at, op)
  | (Spj.Const _ | Spj.Param _), (Spj.Const _ | Spj.Param _) -> P_local 0

(** [prepare db q] compiles [q] against [db]'s schema. The plan only
    refers to relations by name, so it remains valid as [db]'s contents
    change — including across snapshot/rollback — and can be evaluated
    any number of times. *)
let prepare (db : Database.t) (q : Spj.t) : plan =
  let schema = Database.schema db in
  let n = List.length q.Spj.from in
  let from = Array.of_list q.Spj.from in
  let preds = List.map (fun p -> (p, classify_pred q p)) q.Spj.where in
  (* Greedy join order over original FROM positions: prefer a position
     joinable to the already-bound prefix, pins breaking ties; the opening
     position is a pinned one when any exists. Ties fall back to FROM
     order, so pin-free queries keep their original left-deep shape. *)
  let has_pin = Array.make n false in
  List.iter
    (function _, P_pin (p, _, _) -> has_pin.(p) <- true | _ -> ())
    preds;
  let level_of = Array.make n (-1) in
  let order = Array.make n 0 in
  for l = 0 to n - 1 do
    let best = ref (-1) and best_score = ref (-1) in
    for i = 0 to n - 1 do
      if level_of.(i) < 0 then begin
        let joined =
          List.exists
            (function
              | _, P_join (pa, _, pb, _) ->
                  (pa = i && level_of.(pb) >= 0)
                  || (pb = i && level_of.(pa) >= 0)
              | _ -> false)
            preds
        in
        let score = (if joined then 2 else 0) + if has_pin.(i) then 1 else 0 in
        if score > !best_score then begin
          best := i;
          best_score := score
        end
      end
    done;
    order.(l) <- !best;
    level_of.(!best) <- l
  done;
  (* operands compile against execution levels, not FROM positions *)
  let compile_op = function
    | Spj.Const v -> C_const v
    | Spj.Param k -> C_param k
    | Spj.Col (alias, attr) ->
        C_col (level_of.(alias_position q alias), col_index schema q alias attr)
  in
  (* a predicate becomes checkable at the latest level it mentions *)
  let level_of_pred = function
    | P_join (pa, _, pb, _) -> max level_of.(pa) level_of.(pb)
    | P_pin (p, _, _) -> level_of.(p)
    | P_local p -> level_of.(p)
  in
  let steps =
    Array.init n (fun l ->
        let i = order.(l) in
        let _, rname = from.(i) in
        let rel_schema = Schema.find_relation schema rname in
        let build = ref [] and probe = ref [] and filters = ref [] in
        List.iter
          (fun (Spj.Eq (a, b), cls) ->
            if level_of_pred cls = l then
              match cls with
              | P_join (pa, at, pb, bt) when pa <> pb ->
                  (* probe this level's column with the bound side *)
                  let at, (pb, bt) =
                    if pa = i then (at, (pb, bt)) else (bt, (pa, at))
                  in
                  build := Schema.attr_index rel_schema at :: !build;
                  probe :=
                    compile_op (Spj.Col (fst from.(pb), bt)) :: !probe
              | P_pin (_, at, op) ->
                  build := Schema.attr_index rel_schema at :: !build;
                  probe := compile_op op :: !probe
              | _ -> filters := (compile_op a, compile_op b) :: !filters)
          preds;
        {
          s_rname = rname;
          s_build_cols = List.rev !build;
          s_probe = List.rev !probe;
          s_filters = List.rev !filters;
        })
  in
  {
    p_qname = q.Spj.qname;
    p_n = n;
    p_steps = steps;
    p_select =
      Array.of_list (List.map (fun (_, op) -> compile_op op) q.Spj.select);
  }

(** {2 Execution} *)

let cop_value plan ~params (env : env) = function
  | C_const v -> v
  | C_param k ->
      if k >= Array.length params then
        eval_error "query %s: missing parameter $%d" plan.p_qname k
      else params.(k)
  | C_col (p, c) -> (env.(p)).(c)

(** [run_prepared db plan ~params ()] evaluates the compiled plan,
    returning the set of projected rows (duplicates eliminated: views
    have set semantics per Section 2.3). Joins probe the relations'
    persistent secondary indexes. *)
let run_prepared (db : Database.t) (plan : plan) ?(params = [||]) () :
    Tuple.t list =
  let n = plan.p_n in
  let results = ref [] in
  (* [env] is mutated in place down the recursion: level i only reads
     positions < i of the bound prefix, so no per-candidate copies *)
  let env : env = Array.make n [||] in
  let filters_ok step =
    List.for_all
      (fun (a, b) ->
        Value.equal (cop_value plan ~params env a) (cop_value plan ~params env b))
      step.s_filters
  in
  let rec extend i =
    if i = n then
      results :=
        Array.map (fun op -> cop_value plan ~params env op) plan.p_select
        :: !results
    else begin
      let step = plan.p_steps.(i) in
      let rel = Database.relation db step.s_rname in
      let try_tuple t =
        env.(i) <- t;
        if filters_ok step then extend (i + 1)
      in
      match step.s_build_cols with
      | [] -> Relation.iter try_tuple rel
      | cols -> (
          let index = Relation.index_on rel cols in
          let probe_key =
            List.map (fun op -> cop_value plan ~params env op) step.s_probe
          in
          match Hashtbl.find_opt index probe_key with
          | None -> ()
          | Some ts -> List.iter try_tuple ts)
    end
  in
  extend 0;
  (* Set semantics. *)
  let seen = Hashtbl.create (List.length !results) in
  List.filter
    (fun row ->
      let k = Array.to_list row in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    (List.rev !results)

(** [run db q ~params] compiles and evaluates [q] in one call. Callers
    evaluating the same query repeatedly should {!prepare} once and use
    {!run_prepared}. *)
let run (db : Database.t) (q : Spj.t) ?(params = [||]) () : Tuple.t list =
  run_prepared db (prepare db q) ~params ()

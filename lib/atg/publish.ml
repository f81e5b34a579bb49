(** Schema-directed publishing: σ(I) as a compressed DAG.

    The publisher expands element types top-down from the root, exactly as
    in Section 2.2, but allocates nodes through the store's gen_id Skolem
    function — so the subtree property (the subtree below a node is a
    function of its type and semantic attribute) makes every shared
    subtree expand once. The result is the DAG compression of Section 2.3
    directly; the tree view is recovered by {!Rxv_dag.Store.to_tree}.

    Publishing checks acyclicity: base data with, e.g., cyclic
    prerequisites would denote an infinite tree, which we reject (the
    paper's views are trees, so σ(I) must be a DAG). *)

module Store = Rxv_dag.Store
module Value = Rxv_relational.Value
module Tuple = Rxv_relational.Tuple
module Eval = Rxv_relational.Eval
module Database = Rxv_relational.Database
module Dtd = Rxv_xml.Dtd

exception Cyclic_view of string

(* Create (or find) the node for (etype, attr), setting pcdata text. *)
let intern (atg : Atg.t) store etype (attr : Tuple.t) =
  let text =
    match Atg.rule atg etype with
    | Atg.R_pcdata i -> Some (Value.to_string attr.(i))
    | _ -> None
  in
  Store.gen_id store etype attr ?text ()

(* Star-rule evaluation: one call per parent, each against the rule's
   compiled plan (index-probing on the parameter bindings). *)
type star_eval = string -> Atg.star_rule -> Tuple.t -> Tuple.t list

let per_call_star_eval (db : Database.t) : star_eval =
  (* the same rule fires once per parent: compile its plan once *)
  let plans : (string, Eval.plan) Hashtbl.t = Hashtbl.create 8 in
  fun etype sr attr ->
    let plan =
      match Hashtbl.find_opt plans etype with
      | Some p -> p
      | None ->
          let p = Eval.prepare db sr.Atg.query in
          Hashtbl.replace plans etype p;
          p
    in
    Eval.run_prepared db plan ~params:attr ()

(* Children of a node as (child type, $B, provenance) triples, straight
   from the rules. *)
let expand_children (atg : Atg.t) (star_eval : star_eval) etype
    (attr : Tuple.t) : (string * Tuple.t * Tuple.t option) list =
  match Atg.rule atg etype with
  | Atg.R_pcdata _ | Atg.R_empty -> []
  | Atg.R_seq maps ->
      List.map (fun (b, m) -> (b, Atg.apply_map m attr, None)) maps
  | Atg.R_alt branches -> (
      match
        List.find_opt (fun (g, _, _) -> Atg.guard_holds g attr) branches
      with
      | Some (_, b, m) -> [ (b, Atg.apply_map m attr, None) ]
      | None ->
          Atg.atg_error "ATG %s: no alternative matches at %s" atg.Atg.name
            etype)
  | Atg.R_star sr ->
      let b =
        match Dtd.production atg.Atg.dtd etype with
        | Dtd.Star b -> b
        | _ -> assert false
      in
      List.map
        (fun row ->
          let battr = Array.sub row 0 sr.Atg.attr_width in
          (b, battr, Some row))
        (star_eval etype sr attr)

(* Expand every unexpanded node reachable from the work list.
   [is_expanded] marks nodes expanded before this call without
   materializing them in [expanded] — publish_subtree passes an id
   watermark so it never touches the O(|view|) pre-existing portion. *)
let expand_from ?(is_expanded = fun _ -> false) (atg : Atg.t)
    (star_eval : star_eval) (store : Store.t)
    (expanded : (int, unit) Hashtbl.t) (work : int list) =
  let seen id = is_expanded id || Hashtbl.mem expanded id in
  let queue = Queue.create () in
  List.iter (fun id -> Queue.add id queue) work;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if not (seen id) then begin
      Hashtbl.replace expanded id ();
      let n = Store.node store id in
      List.iter
        (fun (b, battr, provenance) ->
          let cid = intern atg store b battr in
          Store.add_edge store id cid ~provenance;
          if not (seen cid) then Queue.add cid queue)
        (expand_children atg star_eval n.Store.etype n.Store.attr)
    end
  done

let check_acyclic store =
  let color = Hashtbl.create (Store.n_nodes store) in
  let rec visit id =
    match Hashtbl.find_opt color id with
    | Some `Done -> ()
    | Some `Active ->
        raise
          (Cyclic_view
             (Printf.sprintf "node %d participates in a reference cycle" id))
    | None ->
        Hashtbl.replace color id `Active;
        List.iter visit (Store.children store id);
        Hashtbl.replace color id `Done
  in
  Store.iter_nodes (fun n -> visit n.Store.id) store

(** [publish atg db] materializes the DAG compression of σ(I).
    @raise Cyclic_view if the data induces an infinite tree. *)
let publish (atg : Atg.t) (db : Database.t) : Store.t =
  let store = Store.create () in
  let root_id = intern atg store atg.Atg.dtd.Dtd.root atg.Atg.root_attr in
  Store.set_root store root_id;
  let expanded = Hashtbl.create 1024 in
  expand_from atg (per_call_star_eval db) store expanded [ root_id ];
  check_acyclic store;
  store

(** [publish_subtree atg db store (a, t)] expands ST(a, t) *inside* an
    existing store — the step Xinsert (Fig. 5, line 2) delegates to "the
    algorithm of [8]". Returns the subtree root id, all subtree node ids
    (NA), and the subset that did not exist before. The store is assumed
    fully expanded for pre-existing nodes, so expansion stops at shared
    boundaries. *)
let publish_subtree (atg : Atg.t) (db : Database.t) (store : Store.t)
    (etype : string) (attr : Tuple.t) : int * int list * int list =
  if not (Dtd.mem atg.Atg.dtd etype) then
    Atg.atg_error "ATG %s: unknown element type %s" atg.Atg.name etype;
  let tys = Atg.attr_tys atg etype in
  if
    Array.length tys <> Array.length attr
    || not (Array.for_all2 (fun ty v -> Value.has_ty ty v) tys attr)
  then
    Atg.atg_error "ATG %s: attribute does not match $%s's type" atg.Atg.name
      etype;
  let first_new_id = Store.next_id store in
  let root_id = intern atg store etype attr in
  let expanded = Hashtbl.create 64 in
  (* pre-existing nodes are already fully expanded; an id below the
     watermark predates this call (a pre-existing root is covered too:
     nothing below it needs expanding) *)
  expand_from atg (per_call_star_eval db) store expanded [ root_id ]
    ~is_expanded:(fun id -> id < first_new_id);
  (* collect NA = desc-or-self of the subtree root *)
  let na = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem na id) then begin
      Hashtbl.replace na id ();
      List.iter go (Store.children store id)
    end
  in
  go root_id;
  let na_list = Hashtbl.fold (fun id () acc -> id :: acc) na [] in
  let new_nodes = List.filter (fun id -> id >= first_new_id) na_list in
  (root_id, na_list, new_nodes)

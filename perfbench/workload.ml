(* The benchmark's inputs: the three workloads, the shadow model of the
   view, and the deterministic operation plan drawn from a workload seed.

   The dataset is the Section 5 synthetic instance with the CLI's default
   generator seed, so the server under test ([rxv serve -s synth]) and the
   in-process traced run build the same view. The workload seed only
   chooses the operations.

   Every write is half of an insert/delete pair: insert a fresh leaf key f
   under a parent p, then delete that same edge (p, f). A pair leaves the
   view exactly as it found it, so the view size stays constant, every
   write selects exactly one node, and a run that ends on a completed pair
   must end on the initial view statistics. Parents come from a small
   reserved set; every query reads the children of a key outside that
   set, so its answer never depends on how a concurrent write interleaves
   with it. *)

module Synth = Rxv_workload.Synth
module Rng = Rxv_sat.Rng

let dataset_seed = 7

type mix = Writes | Reads | Mixed

type spec = {
  name : string;
  size : int;  (** |C| of the synthetic dataset *)
  mix : mix;
}

(* why each workload exists: perfbench/README.md *)
let workloads =
  [
    { name = "writes_10k"; size = 10_000; mix = Writes };
    { name = "reads_10k"; size = 10_000; mix = Reads };
    { name = "writes_100k"; size = 100_000; mix = Writes };
    { name = "mixed_10k"; size = 10_000; mix = Mixed };
  ]

let find_spec name = List.find_opt (fun s -> s.name = name) workloads

type shape = W1 | W2 | W3

let shape_name = function W1 -> "W1" | W2 -> "W2" | W3 -> "W3"
let shape_of_int i = match i mod 3 with 0 -> W1 | 1 -> W2 | _ -> W3

type kind = Insert | Delete | Fresh | Repeat | Hit

let kind_name = function
  | Insert -> "insert"
  | Delete -> "delete"
  | Fresh -> "fresh"
  | Repeat -> "repeat"
  | Hit -> "hit"

let is_write = function Insert | Delete -> true | Fresh | Repeat | Hit -> false

type op = {
  kind : kind;
  shape : shape;
  path : string;  (** XPath source, as sent over the wire *)
  parent : int;  (** writes: the key p whose sub element is updated *)
  key : int;
      (** writes: the fresh leaf key f; queries: the key whose c children
          the path selects *)
}

(* ---- shadow model of the view ---- *)

(* the view's sub→c edge set by parent key: H pairs under reachable
   parents, updated with every acknowledged write *)
type model = {
  roots : int array;
  children : (int, int list) Hashtbl.t;
  lock : Mutex.t;
}

let children_of m k = Option.value ~default:[] (Hashtbl.find_opt m.children k)

let model_of_dataset (d : Synth.dataset) =
  let h = Hashtbl.create 1024 in
  List.iter
    (fun (p, c) ->
      Hashtbl.replace h p (c :: Option.value ~default:[] (Hashtbl.find_opt h p)))
    d.Synth.h_pairs;
  let children = Hashtbl.create 1024 in
  let rec visit k =
    if not (Hashtbl.mem children k) then begin
      let cs =
        List.sort_uniq compare (Option.value ~default:[] (Hashtbl.find_opt h k))
      in
      Hashtbl.replace children k cs;
      List.iter visit cs
    end
  in
  List.iter visit d.Synth.roots;
  { roots = Array.of_list d.Synth.roots; children; lock = Mutex.create () }

let with_model m f =
  Mutex.lock m.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.lock) f

(* the count a query must return: |c children of op.key| *)
let expected_count m op = with_model m (fun () -> List.length (children_of m op.key))

(* a write may be issued only if the model says it selects its node *)
let write_applicable m op =
  with_model m (fun () ->
      Hashtbl.mem m.children op.parent
      &&
      let has = List.mem op.key (children_of m op.parent) in
      match op.kind with Insert -> not has | Delete -> has | _ -> false)

let ack_write m op =
  with_model m (fun () ->
      let cs = children_of m op.parent in
      match op.kind with
      | Insert ->
          Hashtbl.replace m.children op.parent (op.key :: cs);
          Hashtbl.replace m.children op.key []
      | Delete ->
          Hashtbl.replace m.children op.parent
            (List.filter (fun c -> c <> op.key) cs);
          Hashtbl.remove m.children op.key
      | _ -> ())

(* ---- paths ---- *)

let parent_path shape k =
  match shape with
  | W1 -> Printf.sprintf "//c[cid=%d]" k
  | W2 -> Printf.sprintf "c[cid=%d]" k
  | W3 -> Printf.sprintf "c[cid=%d][sub/c]" k

(* children of j, reached through the chain r/k/j (W2, W3: r a root) or
   the edge k/j under a descendant step (W1) *)
let query_path shape (r, k, j) =
  match shape with
  | W1 -> Printf.sprintf "//c[cid=%d]/sub/c[cid=%d]/sub/c" k j
  | W2 -> Printf.sprintf "c[cid=%d]/sub/c[cid=%d]/sub/c[cid=%d]/sub/c" r k j
  | W3 ->
      Printf.sprintf
        "c[cid=%d][sub/c]/sub/c[cid=%d][sub/c]/sub/c[cid=%d][sub/c]/sub/c" r k j

(* ---- the plan ---- *)

let hot_size = 32
let reserved_parents = 16

type plan = {
  spec : spec;
  seed : int;
  model : model;
  hot : op array;
  fresh_pool : (int * int * int) array array;  (** per shape, shuffled *)
  w1_parents : int array;
  root_parents : int array;
  fresh_base : int;  (** first fresh leaf key *)
}

(* the i-th insert/delete pair: shapes rotate W1, W2, W3 across pairs *)
let write_pair pl i =
  let shape = shape_of_int i in
  let parents =
    match shape with W1 -> pl.w1_parents | W2 | W3 -> pl.root_parents
  in
  (* W2 and W3 share the root parents: offset them so that consecutive
     pairs update different roots *)
  let slot = (i / 3) + (match shape with W3 -> reserved_parents / 2 | _ -> 0) in
  let p = parents.(slot mod Array.length parents) in
  let f = pl.fresh_base + i in
  let pp = parent_path shape p in
  ( { kind = Insert; shape; path = pp ^ "/sub"; parent = p; key = f },
    {
      kind = Delete;
      shape;
      path = Printf.sprintf "%s/sub/c[cid=%d]" pp f;
      parent = p;
      key = f;
    } )

(* the i-th never-repeated read: shapes rotate W1, W2, W3. A pool sized
   for several times today's read rate backs each shape; should a much
   faster build exhaust it, the stream wraps (reported by [fresh_wrapped])
   and a wrapped path is a repeat only after hundreds of other keys — far
   past the 64-entry result cache. *)
let fresh pl i =
  let shape = shape_of_int i in
  let pool = pl.fresh_pool.(i mod 3) in
  let ((_, _, j) as chain) = pool.((i / 3) mod Array.length pool) in
  { kind = Fresh; shape; path = query_path shape chain; parent = -1; key = j }

let fresh_wrapped pl i = i / 3 >= Array.length pl.fresh_pool.(i mod 3)

let create (spec : spec) ~seed =
  let d = Synth.generate (Synth.default_params ~seed:dataset_seed spec.size) in
  let model = model_of_dataset d in
  let rng = Rng.create (seed lxor 0x5eed) in
  let shuffled l =
    let a = Array.of_list l in
    Rng.shuffle rng a;
    a
  in
  let is_root = Hashtbl.create 256 in
  Array.iter (fun r -> Hashtbl.replace is_root r ()) model.roots;
  let keys =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model.children [])
  in
  let take n a = Array.sub a 0 (min n (Array.length a)) in
  let root_parents = take reserved_parents (shuffled (Array.to_list model.roots)) in
  let w1_parents =
    take reserved_parents
      (shuffled (List.filter (fun k -> not (Hashtbl.mem is_root k)) keys))
  in
  let reserved = Hashtbl.create 64 in
  Array.iter (fun k -> Hashtbl.replace reserved k ()) root_parents;
  Array.iter (fun k -> Hashtbl.replace reserved k ()) w1_parents;
  (* a query target j must have children (so W3's [sub/c] and the count
     are non-trivial) and never be a write parent *)
  let target j = children_of model j <> [] && not (Hashtbl.mem reserved j) in
  let edges =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun j -> if target j then Some (-1, k, j) else None)
          (children_of model k))
      keys
  in
  let chains =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun k ->
            List.filter_map
              (fun j -> if target j then Some (r, k, j) else None)
              (children_of model k))
          (children_of model r))
      (Array.to_list model.roots)
  in
  let w1 = shuffled edges and w2 = shuffled chains and w3 = shuffled chains in
  let per_shape = (hot_size + 2) / 3 in
  let hot =
    Array.init hot_size (fun i ->
        let shape = shape_of_int i in
        let pool = match shape with W1 -> w1 | W2 -> w2 | W3 -> w3 in
        let ((_, _, j) as chain) = pool.(i / 3) in
        { kind = Repeat; shape; path = query_path shape chain; parent = -1; key = j })
  in
  let rest a = Array.sub a per_shape (Array.length a - per_shape) in
  {
    spec;
    seed;
    model;
    hot;
    fresh_pool = [| rest w1; rest w2; rest w3 |];
    w1_parents;
    root_parents;
    fresh_base = Synth.fresh_key d 0;
  }

(* a digest of the planned operation streams — the hot set, the first
   4096 write pairs and the first 12288 fresh reads — so two runs (or two
   commits) can be shown to replay identical inputs *)
let digest pl =
  let b = Buffer.create (1 lsl 20) in
  let add op =
    Buffer.add_string b (kind_name op.kind);
    Buffer.add_char b ' ';
    Buffer.add_string b op.path;
    Buffer.add_char b '\n'
  in
  Array.iter add pl.hot;
  for i = 0 to 4095 do
    let ins, del = write_pair pl i in
    add ins;
    add del
  done;
  for i = 0 to 12287 do
    add (fresh pl i)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- schedules ----

   Closed loops only: each stream issues its next operation when the
   previous one has been answered. [exec ~timed op] runs one operation;
   [past ()] tells whether the measured window is over. A loop checks the
   clock only before starting a new insert/delete pair, so every run ends
   on a completed pair. Pair 0 (and, for reads_10k, one read of the hot
   set) is the untimed warm-up. *)

type exec = timed:bool -> op -> unit

let warm_up pl (exec : exec) =
  let ins, del = write_pair pl 0 in
  exec ~timed:false ins;
  exec ~timed:false del;
  if pl.spec.mix = Reads then Array.iter (exec ~timed:false) pl.hot

(* mixed_10k's writer, and the whole of writes_10k and writes_100k *)
let writer_loop pl ~past (exec : exec) =
  let i = ref 1 in
  while not (past ()) do
    let ins, del = write_pair pl !i in
    exec ~timed:true ins;
    exec ~timed:true del;
    incr i
  done

(* reads_10k: cycle c runs pair c (an insert and the delete that undoes
   it, so every read phase sees the same view), reads the hot set twice
   (first read after the writes: a revalidation; second: a hit), then
   three fresh paths *)
let read_cycles pl ~past (exec : exec) =
  let exec = exec ~timed:true in
  let c = ref 1 in
  while not (past ()) do
    let ins, del = write_pair pl !c in
    exec ins;
    exec del;
    Array.iter exec pl.hot;
    Array.iter (fun op -> exec { op with kind = Hit }) pl.hot;
    for k = 0 to 2 do
      exec (fresh pl ((3 * (!c - 1)) + k))
    done;
    incr c
  done

(* mixed_10k's reader *)
let reader_loop pl ~past (exec : exec) =
  let i = ref 0 in
  while not (past ()) do
    exec ~timed:true (fresh pl !i);
    incr i
  done

(* mixed_10k replayed on one thread (the traced run): the two streams
   alternate, one write then one fresh read *)
let interleaved pl ~past (exec : exec) =
  let i = ref 1 in
  while not (past ()) do
    let ins, del = write_pair pl !i in
    exec ~timed:true ins;
    exec ~timed:true (fresh pl (2 * (!i - 1)));
    exec ~timed:true del;
    exec ~timed:true (fresh pl ((2 * (!i - 1)) + 1));
    incr i
  done

(* the whole workload as one stream: the end-to-end run of a
   one-connection workload, and every traced run *)
let run_sequential pl ~past exec =
  match pl.spec.mix with
  | Writes -> writer_loop pl ~past exec
  | Reads -> read_cycles pl ~past exec
  | Mixed -> interleaved pl ~past exec

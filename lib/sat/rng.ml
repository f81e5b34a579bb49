(** Deterministic pseudo-random numbers (splitmix64).

    Dataset generation, workloads and fault injection are randomized;
    reproducible experiments (Section 5 reports averages of repeated runs) need a seedable generator that does not
    depend on global state, so we implement splitmix64 rather than using
    [Stdlib.Random]. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0].
    The 64-bit draw is shifted to 62 bits so it always fits OCaml's
    immediate int non-negatively. *)
let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

(** [float t] is uniform in [0, 1). *)
let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(** Fisher–Yates shuffle (in place). *)
let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(** [pick t l] is a uniformly random element of the nonempty list [l]. *)
let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))

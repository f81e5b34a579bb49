(** Deterministic pseudo-random numbers (splitmix64). Dataset
    generation, workloads, fault injection and retry backoff are
    randomized; reproducible experiments need a seedable generator free
    of global state. *)

type t

val create : int -> t

val next_int64 : t -> int64
val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val float : t -> float
(** uniform in [0, 1) *)

val bool : t -> bool
val shuffle : t -> 'a array -> unit
val pick : t -> 'a list -> 'a
(** @raise Invalid_argument on the empty list. *)

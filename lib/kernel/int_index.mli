(** Open-addressed maps from non-negative ints to ints, on two flat int
    arrays with linear probing.

    The dense-id tables of the graph kernel (region-local slot numbers)
    and of the inclusion product (pair codes to pair ids) look up one
    int key per edge.  A stdlib [Hashtbl] boxes a bucket cell per
    binding and chases a pointer per probe; here a probe reads one word
    of a flat key array and a binding costs nothing beyond the arrays.
    The table doubles when it becomes half full. *)

type t

val create : int -> t
(** [create n] holds [n] keys before it first grows. *)

val find : t -> int -> int
(** The value bound to a key, or [-1] when the key is absent. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t k v] is the value bound to [k]; when [k] is absent
    it binds [k] to [v] first (and returns [v]).  One probe sequence
    either way.  Raises [Invalid_argument] on a negative key. *)

(** Hash tables keyed by int arrays (vector states, transformations).
    The hash reads every entry; [Hashtbl.hash] reads only the first
    ten, so long arrays sharing a prefix would collide. *)
module Arrays : Hashtbl.S with type key = int array

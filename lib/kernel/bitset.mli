(** Persistent sets of non-negative integers, backed by int-array bit
    words.

    Drop-in replacement for the [Set.Make (Int)] instances used on the
    automaton hot paths: state sets are dense intervals [0 .. n-1], so a
    bitset turns membership, union, intersection, difference, inclusion
    and disjointness into word-wise operations.

    Values are immutable and {e normalized} (no trailing all-zero
    words), so structurally equal sets are structurally equal OCaml
    values: polymorphic equality, comparison and hashing on containers
    of bitsets behave exactly as with [Set.Make (Int)] values.

    Elements must be non-negative; [add], [singleton], [of_list] and
    [of_array] raise [Invalid_argument] on a negative element, while
    [mem]/[remove] treat negatives as simply absent. *)

type t

val empty : t

val is_empty : t -> bool

val mem : int -> t -> bool

val add : int -> t -> t

val remove : int -> t -> t

val singleton : int -> t

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool

val disjoint : t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val cardinal : t -> int

(** Elements in increasing order. *)
val elements : t -> int list

val of_list : int list -> t

val of_array : int array -> t

(** [init n f] is the set of [q] in [0 .. n-1] with [f q], built in one
    pass ([f] is applied in increasing order).  Adding the members one
    at a time copies the word array per element; this writes it once.
    Raises [Invalid_argument] when [n] is negative. *)
val init : int -> (int -> bool) -> t

(** [fold], [iter] visit elements in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (int -> unit) -> t -> unit

val for_all : (int -> bool) -> t -> bool

val exists : (int -> bool) -> t -> bool

val filter : (int -> bool) -> t -> t

val filter_map : (int -> int option) -> t -> t

(** Smallest element, if any. *)
val min_elt_opt : t -> int option

val choose_opt : t -> int option

val pp : t Fmt.t

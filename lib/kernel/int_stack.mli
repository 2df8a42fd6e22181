(** A growable stack of ints that never copies what it holds once it
    is past one chunk.

    Most searches are tiny (a tableau product stops after a handful of
    states), so a stack starts as a 16-slot literal, allocated inline
    where [Array.make] is a C call, and doubles up to {!chunk} ints.
    Past that it grows by adding chunks of exactly {!chunk} ints, and
    copies nothing: a search that chains through a million states
    pays for its stack once.

    A stack pushed in groups of [w] ints, [w] dividing {!chunk} (1 to
    6, 8, 10, 12, 15, 16, ...), never splits a group between two
    chunks, so the top group is always [data.(top - w) .. data.(top -
    1)].  The fields are open for loops that read and update the top
    group in place; everything else goes through the functions. *)

type t = {
  mutable data : int array;  (** the top chunk *)
  mutable top : int;
      (** ints used in [data]; [0] only when the stack is empty *)
  mutable level : int;  (** chunks below [data] *)
  mutable chunks : int array array;
      (** every chunk, from the bottom; [[||]] before the first fills *)
}

val chunk : int
(** [3840 = 2^8 * 3 * 5] ints, a multiple of every group size the
    library pushes: 1, 3 (a search frame), 5 (a product cursor) and 16
    (an index page). *)

val create : unit -> t

val push : t -> int -> unit

val push_n : t -> int -> int -> unit
(** [push_n s n x] pushes [n] copies of [x]. *)

val drop : t -> int -> unit
(** [drop s n] pops the top [n] ints, which must sit in [data]: a
    whole group of a stack pushed in groups of [n], or [n = 1]. *)

val length : t -> int
(** The ints on the stack. *)

val get : t -> int -> int
(** [get s i] is the int at position [i] from the bottom, [0 <= i <
    length s]: random access by number, as for a stack of keys that is
    only ever pushed. *)

val set : t -> int -> int -> unit
(** [set s i x] overwrites position [i], [0 <= i < length s]. *)

(** Maps from non-negative ints to non-negative ints, in storage that
    grows without copying its values.

    The dense-id tables of the graph kernel (region-local slot numbers)
    and of the on-the-fly search (keys to discovery numbers) look up
    one int key per edge.  A stdlib [Hashtbl] boxes a bucket cell per
    binding and chases a pointer per probe.  Here a key [k] lives in
    slot [k land 15] of the 16-slot page [k lsr 4], and a small
    open-addressed table finds a page from its number.  A page's slots
    are allocated on an {!Int_stack} when it gets its second key, and
    never move; a key alone on its page stays in the page's table
    entry.  So dense keys (state numbers, pair codes that fill a
    square, interned vector ids) cost about one word each, and a
    sparse key one table entry.  Only the table doubles, when it is
    half full, and what it rehashes is pages.  Memory follows the keys
    reached, never the range of the keys. *)

type t

val create : unit -> t
(** An empty index: one small literal table and an empty stack. *)

val find : t -> int -> int
(** The value bound to a key, or [-1] when the key is absent. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t k v] is the value bound to [k]; when [k] is absent
    it binds [k] to [v] first (and returns [v]).  One probe sequence
    either way.  Raises [Invalid_argument] on a negative key or
    value; a value must also be below [max_int / 16]. *)

(** Hash tables keyed by int arrays (vector states, transformations).
    The hash reads every entry; [Hashtbl.hash] reads only the first
    ten, so long arrays sharing a prefix would collide. *)
module Arrays : Hashtbl.S with type key = int array

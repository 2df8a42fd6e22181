(** Sharded, size-bounded concurrent caches.

    A [Cache.t] is shared across requests — exactly the kind of state
    that grows without bound in a long-lived process unless something
    evicts.  Its one user is the serve daemon's response cache.

    - {b bounded}: every entry carries a caller-supplied weight
      (bytes, approximately); when a shard exceeds its share of the
      capacity it evicts until it fits.
    - {b sharded}: keys hash to independent shards, each behind its
      own mutex, so concurrent requests on different shards never
      contend.  Within a shard the critical sections are O(1)-ish
      (lookup, insert, a bounded eviction scan) — values are computed
      {e outside} the lock.
    - {b 2-random eviction}: on overflow a shard samples two resident
      entries and evicts the least-recently-used of the pair —
      CLOCK-quality hit rates without CLOCK's hand state, and no
      global LRU list to contend on.  The sampler is a per-shard
      deterministic xorshift, so eviction behaviour is reproducible.

    Hits, misses and evictions are counted per shard and read back by
    {!stats}. *)

type ('k, 'v) t

val create :
  ?shards:int -> capacity:int -> weight:('k -> 'v -> int) -> unit -> ('k, 'v) t
(** [create ~capacity ~weight ()] is an empty cache holding at most
    [capacity] weight units in total.  [shards] defaults to 8 and is
    rounded up to a power of two; keys hash with [Hashtbl.hash] and
    compare structurally, as in [Hashtbl].  [capacity <= 0] disables
    the cache entirely: every lookup misses and nothing is ever stored
    (a daemon started with [--cache-mb 0]).  Raises [Invalid_argument]
    on [shards < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Touches the entry (eviction prefers colder entries). *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, then evict while over the shard budget.  An
    entry whose weight alone exceeds the shard budget is not stored
    (it would only evict everything else and then miss anyway). *)

type stats = {
  entries : int;
  weight : int;  (** resident weight, summed over shards *)
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

val stats : ('k, 'v) t -> stats
(** Consistent-enough snapshot (per-shard counters read under the
    shard locks, summed). *)

(* Sharded bounded cache with 2-random eviction.  See cache.mli for
   the contract; the representation notes:

   - Each shard owns a hashtable keyed by the caller's key plus an
     indexed dense array of resident keys ([slots]) so the evictor can
     sample uniformly in O(1).  Entries record their slot index;
     removal swaps with the last slot, so the array never has holes.
   - Recency is a per-shard monotone tick stamped on every hit; the
     2-random evictor compares stamps, so it needs no list surgery on
     the hot path (the measured cost of a hit is: one mutex, one
     hashtable probe, one store). *)

type ('k, 'v) entry = {
  value : 'v;
  ew : int;  (* weight, frozen at insertion *)
  mutable slot : int;  (* index in [slots] *)
  mutable stamp : int;  (* last-touch tick *)
}

type ('k, 'v) shard = {
  lock : Mutex.t;
  tbl : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable slots : 'k array;  (* dense resident keys; [used] are live *)
  mutable used : int;
  mutable weight : int;
  mutable tick : int;
  mutable rng : int;  (* xorshift state, deterministic per shard *)
  (* counters, read back by [stats] *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type ('k, 'v) t = {
  mask : int;  (* shard count - 1; shard count is a power of two *)
  shards : ('k, 'v) shard array;
  weight_of : 'k -> 'v -> int;
  capacity : int;  (* total, across shards *)
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(shards = 8) ~capacity ~weight () =
  if shards < 1 then invalid_arg "Cache.create: shards must be >= 1";
  let n = next_pow2 shards in
  {
    mask = n - 1;
    shards =
      Array.init n (fun i ->
          {
            lock = Mutex.create ();
            tbl = Hashtbl.create 64;
            slots = [||];
            used = 0;
            weight = 0;
            tick = 0;
            (* any fixed non-zero seed works; vary it per shard so the
               samplers do not march in lockstep *)
            rng = 0x9E3779B9 + i;
            hits = 0;
            misses = 0;
            evictions = 0;
          });
    weight_of = weight;
    capacity;
  }

let shard_of t k = t.shards.(Hashtbl.hash k land t.mask)

let locked sh f =
  Mutex.lock sh.lock;
  match f () with
  | v ->
      Mutex.unlock sh.lock;
      v
  | exception e ->
      Mutex.unlock sh.lock;
      raise e

let xorshift sh =
  let x = sh.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  sh.rng <- x land max_int;
  sh.rng

let remove_slot sh e k =
  let last = sh.used - 1 in
  let lk = sh.slots.(last) in
  sh.slots.(e.slot) <- lk;
  (match Hashtbl.find_opt sh.tbl lk with
  | Some le -> le.slot <- e.slot
  | None -> ());
  sh.used <- last;
  Hashtbl.remove sh.tbl k;
  sh.weight <- sh.weight - e.ew

(* Evict until the shard fits its budget: sample two resident slots,
   drop the one touched longer ago.  Bounded: every iteration removes
   one entry. *)
let rec evict_to sh ~budget =
  if sh.weight > budget && sh.used > 0 then begin
    let i = xorshift sh mod sh.used in
    let j = xorshift sh mod sh.used in
    let ki = sh.slots.(i) and kj = sh.slots.(j) in
    let victim_key =
      match (Hashtbl.find_opt sh.tbl ki, Hashtbl.find_opt sh.tbl kj) with
      | Some ei, Some ej -> if ei.stamp <= ej.stamp then ki else kj
      | Some _, None -> ki
      | None, Some _ -> kj
      | None, None -> ki
    in
    (match Hashtbl.find_opt sh.tbl victim_key with
    | Some e ->
        remove_slot sh e victim_key;
        sh.evictions <- sh.evictions + 1
    | None -> ());
    evict_to sh ~budget
  end

let push_slot sh k =
  if sh.used = Array.length sh.slots then begin
    let cap = max 8 (2 * Array.length sh.slots) in
    let fresh = Array.make cap k in
    Array.blit sh.slots 0 fresh 0 sh.used;
    sh.slots <- fresh
  end;
  sh.slots.(sh.used) <- k;
  sh.used <- sh.used + 1;
  sh.used - 1

let find t k =
  if t.capacity <= 0 then None
  else
    let sh = shard_of t k in
    locked sh (fun () ->
        match Hashtbl.find_opt sh.tbl k with
        | Some e ->
            sh.tick <- sh.tick + 1;
            e.stamp <- sh.tick;
            sh.hits <- sh.hits + 1;
            Some e.value
        | None ->
            sh.misses <- sh.misses + 1;
            None)

let add t k v =
  if t.capacity > 0 then
    let w = t.weight_of k v in
    let budget = t.capacity / (t.mask + 1) in
    if w <= budget then
      let sh = shard_of t k in
      locked sh (fun () ->
          (match Hashtbl.find_opt sh.tbl k with
          | Some old -> remove_slot sh old k
          | None -> ());
          sh.tick <- sh.tick + 1;
          let e = { value = v; ew = w; slot = 0; stamp = sh.tick } in
          e.slot <- push_slot sh k;
          Hashtbl.replace sh.tbl k e;
          sh.weight <- sh.weight + w;
          evict_to sh ~budget)

(* declared after every function that touches shard fields, so the
   [weight]/[hits]/... labels above keep resolving to the shard type *)
type stats = {
  entries : int;
  weight : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

let stats t =
  let entries = ref 0
  and weight = ref 0
  and hits = ref 0
  and misses = ref 0
  and evictions = ref 0 in
  Array.iter
    (fun sh ->
      locked sh (fun () ->
          entries := !entries + sh.used;
          weight := !weight + sh.weight;
          hits := !hits + sh.hits;
          misses := !misses + sh.misses;
          evictions := !evictions + sh.evictions))
    t.shards;
  {
    entries = !entries;
    weight = !weight;
    capacity = t.capacity;
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
  }

(* Two flat int arrays, keys and values; a key of [-1] marks a free
   slot.  The capacity is a power of two kept at least twice the number
   of bindings, so every probe sequence ends at a free slot after a few
   steps.

   The home slot of [k] is its low [bits] bits xored with an odd
   multiple of the bits above them.  Keys below the capacity (state
   numbers, pair codes of a product that fills its square) land on
   themselves, so neighbouring keys share cache lines and never
   collide; larger keys get their high part mixed in, which spreads
   strided codes such as [qa * nb] with a fixed [qb]. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable bits : int;
  mutable size : int;
}

let create n =
  let rec pow b = if 1 lsl b >= 2 * n then b else pow (b + 1) in
  let bits = pow 4 in
  {
    keys = Array.make (1 lsl bits) (-1);
    vals = Array.make (1 lsl bits) 0;
    bits;
    size = 0;
  }

let home bits k =
  (k lxor ((k lsr bits) * 0x2545F4914F6CDD1D)) land ((1 lsl bits) - 1)

(* the slot holding [k], or the free slot ending its probe sequence *)
let rec probe_slot keys mask k i =
  let k' = keys.(i) in
  if k' = k || k' < 0 then i else probe_slot keys mask k ((i + 1) land mask)

let find t k =
  if k < 0 then -1
  else
    let i = probe_slot t.keys (Array.length t.keys - 1) k (home t.bits k) in
    if t.keys.(i) = k then t.vals.(i) else -1

let grow t =
  let bits = t.bits + 1 in
  let mask = (1 lsl bits) - 1 in
  let keys = Array.make (1 lsl bits) (-1) in
  let vals = Array.make (1 lsl bits) 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe_slot keys mask k (home bits k) in
        keys.(j) <- k;
        vals.(j) <- t.vals.(i)
      end)
    t.keys;
  t.keys <- keys;
  t.vals <- vals;
  t.bits <- bits

let find_or_add t k v =
  if k < 0 then invalid_arg "Int_index.find_or_add: negative key";
  let keys = t.keys in
  let i = probe_slot keys (Array.length keys - 1) k (home t.bits k) in
  if keys.(i) = k then t.vals.(i)
  else begin
    keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length keys then grow t;
    v
  end

module Arrays = Hashtbl.Make (struct
  type t = int array

  let equal (u : t) v =
    let n = Array.length u in
    n = Array.length v
    &&
    let rec from i = i = n || (u.(i) = v.(i) && from (i + 1)) in
    from 0

  let hash (v : t) =
    Array.fold_left (fun h x -> (h * 65599) + x) 0 v land max_int
end)

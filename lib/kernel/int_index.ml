(* A key [k] lives on page [k lsr 4], in slot [k land 15] of that
   page.  A small open-addressed table maps a page number to the page:
   one flat int array of entries, two ints each, the page number ([-1]
   when the entry is free) and what the page holds, with linear
   probing.  A page that holds one key keeps it in its entry, as
   [lnot ((v lsl 4) lor slot)], a negative int.  The second key on a
   page pushes its sixteen slots on one {!Int_stack}, where they never
   move ([-1] marks a free slot), and the entry keeps where the first
   is, [(c lsl 12) lor o] for offset [o] in chunk [c] ([>= 0]), so a
   lookup reads the chunk in place.  So a dense key costs about a
   word, and a sparse key (one on its page) costs its table entry and
   no page, as in a flat table.  The table holds at least twice as
   many entries as pages, so every probe sequence ends at a free entry
   after a few steps, and doubling it rehashes pages, a sixteenth of
   the keys when they are dense.

   The home entry of page [p] is its low [bits] bits xored with an odd
   multiple of the bits above them.  Pages below the capacity (dense
   keys: state numbers, pair codes of a product that fills its square)
   land on themselves, so neighbouring pages share cache lines and
   never collide; larger pages get their high part mixed in, which
   spreads strided codes such as the pair codes [(qa lsl s) lor qb]
   with a fixed [qb]. *)

type t = {
  mutable table : int array;
  mutable bits : int;
  mutable pages : int;
  slots : Int_stack.t;
}

let create () =
  {
    table = [| -1; 0; -1; 0; -1; 0; -1; 0; -1; 0; -1; 0; -1; 0; -1; 0 |];
    bits = 3;
    pages = 0;
    slots = Int_stack.create ();
  }

let home bits p =
  (p lxor ((p lsr bits) * 0x2545F4914F6CDD1D)) land ((1 lsl bits) - 1)

(* the entry holding page [p], or the free entry ending its probe
   sequence *)
let rec probe table mask p e =
  let p' = table.(2 * e) in
  if p' = p || p' < 0 then e else probe table mask p ((e + 1) land mask)

(* the chunk holding the page at [x]: the first chunk may still be
   doubling, so it is read from the stack's top while it is alone *)
let page t x =
  let s = t.slots in
  if Array.length s.chunks = 0 then s.data else s.chunks.(x lsr 12)

let find t k =
  if k < 0 then -1
  else
    let table = t.table in
    let p = k lsr 4 in
    let e = probe table ((1 lsl t.bits) - 1) p (home t.bits p) in
    if table.(2 * e) < 0 then -1
    else
      let x = table.((2 * e) + 1) in
      if x >= 0 then (page t x).((x land 4095) + (k land 15))
      else if lnot x land 15 = k land 15 then lnot x lsr 4
      else -1

let grow t =
  let bits = t.bits + 1 in
  let mask = (1 lsl bits) - 1 in
  let table = Array.make (2 lsl bits) (-1) in
  let old = t.table in
  for e = 0 to (Array.length old / 2) - 1 do
    let p = old.(2 * e) in
    if p >= 0 then begin
      let e' = probe table mask p (home bits p) in
      table.(2 * e') <- p;
      table.((2 * e') + 1) <- old.((2 * e) + 1)
    end
  done;
  t.table <- table;
  t.bits <- bits

(* the page of entry [e] gets its slots, with the one key its entry
   held, [lnot x] *)
let spill t e x =
  let first = Int_stack.length t.slots in
  Int_stack.push_n t.slots 16 (-1);
  Int_stack.set t.slots (first + (lnot x land 15)) (lnot x lsr 4);
  let at = ((first / Int_stack.chunk) lsl 12) lor (first mod Int_stack.chunk) in
  t.table.((2 * e) + 1) <- at;
  at

let find_or_add t k v =
  if k < 0 || v < 0 then
    invalid_arg "Int_index.find_or_add: negative key or value";
  let p = k lsr 4 in
  let table = t.table in
  let e = probe table ((1 lsl t.bits) - 1) p (home t.bits p) in
  if table.(2 * e) < 0 then begin
    table.(2 * e) <- p;
    table.((2 * e) + 1) <- lnot ((v lsl 4) lor (k land 15));
    t.pages <- t.pages + 1;
    if 4 * t.pages > Array.length table then grow t;
    v
  end
  else
    let x = table.((2 * e) + 1) in
    if x < 0 && lnot x land 15 = k land 15 then lnot x lsr 4
    else
      let at = if x < 0 then spill t e x else x in
      let a = page t at and i = (at land 4095) + (k land 15) in
      let w = a.(i) in
      if w >= 0 then w
      else begin
        a.(i) <- v;
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
    let h = ref 0 in
    for i = 0 to Array.length v - 1 do
      h := (!h * 65599) + v.(i)
    done;
    !h land max_int
end)

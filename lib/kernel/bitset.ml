(* Invariant: the last word of a non-empty set is non-zero.  This keeps
   equal sets structurally equal, so polymorphic compare/hash on values
   embedding bitsets (acceptance conditions, cycle lists) stay sound. *)

type t = int array

let bits = Sys.int_size

let empty : t = [||]

let is_empty s = Array.length s = 0

let normalize (a : int array) : t =
  let n = Array.length a in
  let rec top i = if i >= 0 && a.(i) = 0 then top (i - 1) else i in
  let l = top (n - 1) in
  if l = n - 1 then a else Array.sub a 0 (l + 1)

let mem q s =
  q >= 0
  &&
  let w = q / bits in
  w < Array.length s && s.(w) land (1 lsl (q mod bits)) <> 0

let add q s =
  if q < 0 then invalid_arg "Bitset.add: negative element";
  let w = q / bits in
  let n = Array.length s in
  if w < n && s.(w) land (1 lsl (q mod bits)) <> 0 then s
  else begin
    let out = Array.make (max n (w + 1)) 0 in
    Array.blit s 0 out 0 n;
    out.(w) <- out.(w) lor (1 lsl (q mod bits));
    out
  end

let remove q s =
  if not (mem q s) then s
  else begin
    let out = Array.copy s in
    out.(q / bits) <- out.(q / bits) land lnot (1 lsl (q mod bits));
    normalize out
  end

let singleton q = add q empty

let union s1 s2 =
  let a, b =
    if Array.length s1 >= Array.length s2 then (s1, s2) else (s2, s1)
  in
  if Array.length b = 0 then a
  else begin
    let out = Array.copy a in
    Array.iteri (fun i w -> out.(i) <- out.(i) lor w) b;
    out
  end

let inter s1 s2 =
  let n = min (Array.length s1) (Array.length s2) in
  normalize (Array.init n (fun i -> s1.(i) land s2.(i)))

let diff s1 s2 =
  let n1 = Array.length s1 in
  let n2 = Array.length s2 in
  normalize
    (Array.init n1 (fun i ->
         if i < n2 then s1.(i) land lnot s2.(i) else s1.(i)))

let subset s1 s2 =
  Array.length s1 <= Array.length s2
  &&
  let n = Array.length s1 in
  let rec go i = i >= n || (s1.(i) land lnot s2.(i) = 0 && go (i + 1)) in
  go 0

(* a closure-free loop with [Int.min]: the on-the-fly search tests a
   condition's atoms against a root's marks on every closing edge *)
let rec disjoint_from s1 s2 i n =
  i >= n || (s1.(i) land s2.(i) = 0 && disjoint_from s1 s2 (i + 1) n)

let disjoint s1 s2 =
  disjoint_from s1 s2 0 (Int.min (Array.length s1) (Array.length s2))

let equal (s1 : t) (s2 : t) = s1 = s2

let compare (s1 : t) (s2 : t) = Stdlib.compare s1 s2

let popcount x =
  let c = ref 0 and v = ref x in
  while !v <> 0 do
    incr c;
    v := !v land (!v - 1)
  done;
  !c

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s

let iter f s =
  Array.iteri
    (fun wi w ->
      if w <> 0 then begin
        let base = wi * bits in
        let v = ref w and b = ref 0 in
        while !v <> 0 do
          if !v land 1 <> 0 then f (base + !b);
          incr b;
          v := !v lsr 1
        done
      end)
    s

let fold f s init =
  let acc = ref init in
  iter (fun q -> acc := f q !acc) s;
  !acc

let elements s = List.rev (fold (fun q acc -> q :: acc) s [])

let of_array qs =
  if Array.length qs = 0 then empty
  else begin
    let top = ref (-1) in
    Array.iter
      (fun q ->
        if q < 0 then invalid_arg "Bitset.of_array: negative element";
        if q > !top then top := q)
      qs;
    let out = Array.make ((!top / bits) + 1) 0 in
    Array.iter
      (fun q -> out.(q / bits) <- out.(q / bits) lor (1 lsl (q mod bits)))
      qs;
    out
  end

let of_list l = of_array (Array.of_list l)

let init n f =
  if n < 0 then invalid_arg "Bitset.init: negative size";
  let out = Array.make ((n + bits - 1) / bits) 0 in
  for q = 0 to n - 1 do
    if f q then out.(q / bits) <- out.(q / bits) lor (1 lsl (q mod bits))
  done;
  normalize out

exception Short_circuit

let for_all p s =
  try
    iter (fun q -> if not (p q) then raise Short_circuit) s;
    true
  with Short_circuit -> false

let exists p s =
  try
    iter (fun q -> if p q then raise Short_circuit) s;
    false
  with Short_circuit -> true

(* One pass into one words array, sized like the input: [add] per kept
   element would copy the growing set each time. *)
let filter p s =
  let out = Array.make (Array.length s) 0 in
  iter
    (fun q ->
      if p q then out.(q / bits) <- out.(q / bits) lor (1 lsl (q mod bits)))
    s;
  normalize out

let filter_map f s =
  of_list
    (fold (fun q acc -> match f q with Some q' -> q' :: acc | None -> acc) s [])

let min_elt_opt s =
  let rec word wi =
    if wi >= Array.length s then None
    else if s.(wi) = 0 then word (wi + 1)
    else begin
      let v = ref s.(wi) and b = ref 0 in
      while !v land 1 = 0 do
        incr b;
        v := !v lsr 1
      done;
      Some ((wi * bits) + !b)
    end
  in
  word 0

let choose_opt = min_elt_opt

let pp ppf s =
  Fmt.pf ppf "{%s}" (String.concat "," (List.map string_of_int (elements s)))

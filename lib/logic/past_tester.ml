module Alphabet = Finitary.Alphabet
module Dfa = Finitary.Dfa

(* The closure compiled to opcodes over slot indices.  A slot holds one
   subformula; children get lower slots than their parents.  [Lit] slots
   (constants and atoms) are not stepped: their bits come from the
   letter's literal vector. *)
type op =
  | Lit
  | Not of int
  | And of int * int
  | Or of int * int
  | Imp of int * int
  | Iff of int * int
  | Prev of int
  | Wprev of int
  | Since of int * int
  | Wsince of int * int
  | Once of int
  | Hist of int

type t = {
  alpha : Alphabet.t;
  tracked : int array;  (** slot of each requested formula *)
  n : int;
  initial : int;
  delta : int array array;
  vectors : int array;  (** truth bitmask per non-initial state *)
}

let bit v i = (v lsr i) land 1 = 1

(* Slots in [Formula.subformulas] order (post-order, first occurrence
   wins), so an unknown atom is met where it always was. *)
let compile root =
  let slots = Hashtbl.create 32 in
  let ops = ref [] and forms = ref [] and count = ref 0 in
  let rec visit f =
    match Hashtbl.find_opt slots f with
    | Some i -> i
    | None ->
        let op =
          match f with
          | Formula.True | Formula.False | Formula.Atom _ -> Lit
          | Formula.Not g -> Not (visit g)
          | Formula.And (g, h) -> let i = visit g in And (i, visit h)
          | Formula.Or (g, h) -> let i = visit g in Or (i, visit h)
          | Formula.Imp (g, h) -> let i = visit g in Imp (i, visit h)
          | Formula.Iff (g, h) -> let i = visit g in Iff (i, visit h)
          | Formula.Prev g -> Prev (visit g)
          | Formula.Wprev g -> Wprev (visit g)
          | Formula.Since (g, h) -> let i = visit g in Since (i, visit h)
          | Formula.Wsince (g, h) -> let i = visit g in Wsince (i, visit h)
          | Formula.Once g -> Once (visit g)
          | Formula.Hist g -> Hist (visit g)
          | Formula.Next _ | Formula.Until _ | Formula.Wuntil _
          | Formula.Ev _ | Formula.Alw _ ->
              assert false
        in
        let i = !count in
        incr count;
        Hashtbl.add slots f i;
        ops := op :: !ops;
        forms := f :: !forms;
        i
  in
  ignore (visit root);
  let rev l = Array.of_list (List.rev l) in
  (slots, rev !ops, rev !forms)

(* [lits.(a)]: the bits of the constant and atom slots on letter [a].
   Atoms are evaluated slot by slot, so the first unknown one raises
   [Alphabet.holds]'s error. *)
let literals alpha forms =
  let lits = Array.make (Alphabet.size alpha) 0 in
  Array.iteri
    (fun i f ->
      let set a = lits.(a) <- lits.(a) lor (1 lsl i) in
      match f with
      | Formula.True -> Array.iteri (fun a _ -> set a) lits
      | Formula.Atom x ->
          Array.iteri (fun a _ -> if Alphabet.holds alpha x a then set a) lits
      | _ -> ())
    forms;
  lits

(* Value of a previous-position bit; [first] means no position was read
   yet, and [init] is the operator's value there. *)
let was first prev i init = if first then init else bit prev i

(* The truth vector at a position, from the vector at the previous one
   and the letter's literal vector.  Slots run children first. *)
let step_vector ops first prev lit =
  let v = ref lit in
  for i = 0 to Array.length ops - 1 do
    let b =
      match ops.(i) with
      | Lit -> false
      | Not g -> not (bit !v g)
      | And (g, h) -> bit !v g && bit !v h
      | Or (g, h) -> bit !v g || bit !v h
      | Imp (g, h) -> (not (bit !v g)) || bit !v h
      | Iff (g, h) -> bit !v g = bit !v h
      | Prev g -> was first prev g false
      | Wprev g -> was first prev g true
      | Since (g, h) -> bit !v h || (bit !v g && was first prev i false)
      | Wsince (g, h) -> bit !v h || (bit !v g && was first prev i true)
      | Once g -> bit !v g || was first prev i false
      | Hist g -> bit !v g && was first prev i true
    in
    if b then v := !v lor (1 lsl i)
  done;
  !v

module Vectors = Hashtbl.Make (Int)

let make alpha ps =
  List.iter
    (fun p ->
      if not (Formula.is_past p) then
        invalid_arg "Past_tester.make: not a past formula")
    ps;
  (* [conj ps] introduces And nodes; harmless, they are state-free. *)
  let slots, ops, forms = compile (Formula.conj ps) in
  if Array.length ops > 62 then
    invalid_arg "Past_tester.make: formula too large (> 62 subformulae)";
  let tracked = Array.of_list (List.map (Hashtbl.find slots) ps) in
  let lits = literals alpha forms in
  let k = Array.length lits in
  (* BFS over reachable vectors, letters in order; state 0 is the
     initial (pre-read) state, and states are numbered on discovery, so
     row [q] is built when [q] is dequeued. *)
  let ids = Vectors.create 64 in
  let vectors = ref (Array.make 64 0) and rows = ref (Array.make 64 [||]) in
  let count = ref 1 in
  let intern v =
    match Vectors.find_opt ids v with
    | Some q -> q
    | None ->
        let q = !count in
        if q = Array.length !vectors then begin
          vectors := Array.append !vectors (Array.make q 0);
          rows := Array.append !rows (Array.make q [||])
        end;
        incr count;
        Vectors.add ids v q;
        !vectors.(q) <- v;
        q
  in
  let row first prev =
    Array.init k (fun a -> intern (step_vector ops first prev lits.(a)))
  in
  (* a row may grow [rows]: build it before writing it *)
  let r = row true 0 in
  !rows.(0) <- r;
  let q = ref 1 in
  while !q < !count do
    let r = row false !vectors.(!q) in
    !rows.(!q) <- r;
    incr q
  done;
  let n = !count in
  {
    alpha;
    tracked;
    n;
    initial = 0;
    delta = Array.sub !rows 0 n;
    vectors = Array.sub !vectors 0 n;
  }

let alpha t = t.alpha

let n_states t = t.n

let initial t = t.initial

let step t q a = t.delta.(q).(a)

let value t q i =
  if q = t.initial then
    invalid_arg "Past_tester.value: initial state has no last position";
  bit t.vectors.(q) t.tracked.(i)

let to_dfa t i =
  let accept =
    Array.init t.n (fun q -> q <> t.initial && value t q i)
  in
  Dfa.make ~alpha:t.alpha ~n:t.n ~start:t.initial ~delta:t.delta ~accept

let esat alpha p = Dfa.minimize (to_dfa (make alpha [ p ]) 0)

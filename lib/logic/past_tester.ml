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
   Atoms are evaluated slot by slot, each over all letters after one
   name lookup, so the first unknown one raises [Alphabet.holds]'s
   error. *)
let literals alpha forms =
  let lits = Array.make (Alphabet.size alpha) 0 in
  Array.iteri
    (fun i f ->
      let set a = lits.(a) <- lits.(a) lor (1 lsl i) in
      match f with
      | Formula.True -> Array.iteri (fun a _ -> set a) lits
      | Formula.Atom x ->
          Array.iteri (fun a b -> if b then set a) (Alphabet.truth alpha x)
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

(* The slots a step reads from the previous position: the operands of
   [Y]/[Z] and the [S]/[W]/[O]/[H] slots themselves.  Every other bit
   of a vector is a function of these and the letter. *)
let memory ops =
  let m = ref 0 in
  Array.iteri
    (fun i op ->
      match op with
      | Prev g | Wprev g -> m := !m lor (1 lsl g)
      | Since _ | Wsince _ | Once _ | Hist _ -> m := !m lor (1 lsl i)
      | Lit | Not _ | And _ | Or _ | Imp _ | Iff _ -> ())
    ops;
  !m

(* Compile the conjunction of [ps] and evaluate its literals. *)
let prepare alpha ps =
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
  (ops, literals alpha forms, tracked)

(* BFS over reachable states, letters in order.  A state is a truth
   vector masked with [keep], which must hold every bit that a step
   reads ({!memory}) and every bit that the caller reads; keys are
   interned in an {!Int_index}.  State 0 is the initial (pre-read)
   state, and states are numbered on discovery, so row [q] is built
   when [q] is dequeued.  Returns the state count, the rows and the
   masked vectors. *)
let explore ops lits keep =
  let k = Array.length lits in
  let ids = Int_index.create () in
  let vectors = ref (Array.make 16 0) and rows = ref (Array.make 16 [||]) in
  let count = ref 1 in
  let row q first prev =
    let r = Array.make k 0 in
    for a = 0 to k - 1 do
      let v = step_vector ops first prev lits.(a) land keep in
      let q' = Int_index.find_or_add ids v !count in
      if q' = !count then begin
        if q' = Array.length !vectors then begin
          vectors := Array.append !vectors (Array.make q' 0);
          rows := Array.append !rows (Array.make q' [||])
        end;
        !vectors.(q') <- v;
        incr count
      end;
      r.(a) <- q'
    done;
    !rows.(q) <- r
  in
  row 0 true 0;
  let q = ref 1 in
  while !q < !count do
    row !q false !vectors.(!q);
    incr q
  done;
  (!count, Array.sub !rows 0 !count, Array.sub !vectors 0 !count)

let make alpha ps =
  let ops, lits, tracked = prepare alpha ps in
  let n, delta, vectors = explore ops lits (-1) in
  { alpha; tracked; n; initial = 0; delta; vectors }

let alpha t = t.alpha

let n_states t = t.n

let initial t = t.initial

let step t q a = t.delta.(q).(a)

let value t q i =
  if q = t.initial then
    invalid_arg "Past_tester.value: initial state has no last position";
  bit t.vectors.(q) t.tracked.(i)

(* The tester keyed by the memory bits and the root bit only: states
   that agree on those agree on every later step and on acceptance. *)
let esat alpha p =
  let ops, lits, tracked = prepare alpha [ p ] in
  let root = tracked.(0) in
  let n, delta, vectors = explore ops lits (memory ops lor (1 lsl root)) in
  let accept = Array.init n (fun q -> q <> 0 && bit vectors.(q) root) in
  Dfa.minimize (Dfa.make ~alpha ~n ~start:0 ~delta ~accept)

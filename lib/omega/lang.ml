module Word = Finitary.Word
module Dfa = Finitary.Dfa
module Alphabet = Finitary.Alphabet

(* ------------------------------------------------------------------ *)
(* Emptiness                                                           *)
(* ------------------------------------------------------------------ *)

(* The emptiness core lives in [Inclusion] (the on-the-fly engine
   prunes on [live_states], so the core must sit underneath it); this
   module re-exports it to keep its historical interface. *)

let live_states = Inclusion.live_states
let nonempty = Inclusion.nonempty
let is_empty = Inclusion.is_empty

(* ------------------------------------------------------------------ *)
(* Witness extraction                                                  *)
(* ------------------------------------------------------------------ *)

(* A lasso through an accepting cycle, its state steps read back as
   letters (the first letter taking each step). *)
let witness (a : Automaton.t) =
  let reach = Automaton.reachable a in
  let succ = Automaton.successors a in
  let letter q q' =
    let row = a.delta.(q) in
    let rec find l = if row.(l) = q' then l else find (l + 1) in
    find 0
  in
  let rec letters = function
    | q :: (q' :: _ as rest) -> letter q q' :: letters rest
    | [ _ ] | [] -> []
  in
  Option.map
    (fun s ->
      let prefix, cycle = Emptiness.lasso ~succ ~starts:[ a.start ] a.acc s in
      let anchor = List.hd (List.rev prefix) in
      Word.lasso
        ~prefix:(Array.of_list (letters prefix))
        ~cycle:(Array.of_list (letters (anchor :: cycle))))
    (Emptiness.accepting_scc ~n:a.n ~succ a.acc
       (Iset.init a.n (Array.get reach)))

(* ------------------------------------------------------------------ *)
(* Inclusion and equality                                              *)
(* ------------------------------------------------------------------ *)

let is_universal a = Inclusion.is_universal a
let included ?pool:_ a b = Inclusion.included a b

let equal a b = included a b && included b a

let distinguishing_witness a b =
  match witness (Automaton.diff a b) with
  | Some w -> Some w
  | None -> witness (Automaton.diff b a)

(* ------------------------------------------------------------------ *)
(* Prefix language, safety closure, liveness                           *)
(* ------------------------------------------------------------------ *)

let pref (a : Automaton.t) =
  let live = live_states a in
  Dfa.minimize
    (Dfa.make ~alpha:a.alpha ~n:a.n ~start:a.start ~delta:a.delta ~accept:live)

(* The non-live states form an absorbing set, so "some prefix outside
   Pref(Pi)" = "the run eventually stays among non-live states". *)
let dead_set ?budget (a : Automaton.t) =
  let live = live_states ?budget a in
  Iset.init a.n (fun q -> not live.(q))

let safety_closure ?budget ?pool:_ (a : Automaton.t) =
  let dead = dead_set ?budget a in
  Automaton.make ~alpha:a.alpha ~n:a.n ~start:a.start ~delta:a.delta
    ~acc:(Acceptance.simplify (Acceptance.Fin dead))

let liveness_extension ?budget (a : Automaton.t) =
  let dead = dead_set ?budget a in
  Automaton.make ~alpha:a.alpha ~n:a.n ~start:a.start ~delta:a.delta
    ~acc:(Acceptance.simplify (Acceptance.Or [ a.acc; Acceptance.Inf dead ]))

let is_liveness a = Classify.liveness (Classify.forest a)

let safety_liveness_decomposition ?budget a =
  (safety_closure ?budget a, liveness_extension ?budget a)

(* ------------------------------------------------------------------ *)
(* Uniform liveness                                                    *)
(* ------------------------------------------------------------------ *)

(* Pi is uniformly live iff one word is accepted from every state
   reachable in >= 1 step: run the automaton from all those m states
   simultaneously and ask for a word accepted by every component.  The
   vector states are the keys of one {!Emptiness.on_the_fly} search,
   whose positions are the letters: a vector is interned only when the
   search asks for it.  There can be exponentially many in [a.n], and
   the search ticks [?budget] once per vector it discovers in each of
   its at most two runs, and stops at the first accepting cycle.
   Component c carries [a]'s atom marks shifted by [c * t], and the
   condition is the [And] of the m shifted copies of [a.acc], never
   put in DNF. *)
let is_uniform_liveness ?(budget = Budget.unlimited) (a : Automaton.t) =
  let reach = Automaton.reachable a in
  let starts =
    List.sort_uniq Int.compare
      (List.concat_map
         (fun q -> if reach.(q) then Array.to_list a.delta.(q) else [])
         (List.init a.n Fun.id))
  in
  let m = List.length starts in
  let acc, marks, t = Acceptance.number_atoms ~first:0 ~n:a.n a.acc in
  let shift c x = Iset.of_list (List.map (( + ) (c * t)) (Iset.elements x)) in
  let joint =
    Acceptance.simplify
      (Acceptance.And (List.init m (fun c -> Acceptance.map_sets (shift c) acc)))
  in
  let index = Int_index.Arrays.create 64 in
  let vectors = ref (Array.make 16 [||]) in
  let vmarks = ref (Array.make 16 Iset.empty) in
  let buf = Array.make m 0 in
  (* the id of the vector in [buf], copied when it is new *)
  let intern () =
    match Int_index.Arrays.find index buf with
    | i -> i
    | exception Not_found ->
        let i = Int_index.Arrays.length index in
        let v = Array.copy buf in
        Int_index.Arrays.add index v i;
        if i = Array.length !vectors then begin
          vectors := Array.append !vectors (Array.make i [||]);
          vmarks := Array.append !vmarks (Array.make i Iset.empty)
        end;
        !vectors.(i) <- v;
        !vmarks.(i) <-
          Iset.init (m * t) (fun j -> Iset.mem (j mod t) marks.(v.(j / t)));
        i
  in
  let k = Alphabet.size a.alpha in
  let succ key l =
    if l >= k then Emptiness.past_end
    else begin
      let v = !vectors.(key) in
      for c = 0 to m - 1 do
        buf.(c) <- a.delta.(v.(c)).(l)
      done;
      intern ()
    end
  in
  List.iteri (fun c q -> buf.(c) <- q) starts;
  let start = intern () in
  let r =
    Emptiness.on_the_fly ~budget
      ~marks:(fun key -> !vmarks.(key))
      ~succ joint start
  in
  (* a condition that is false on every cycle makes no run; the one
     tick keeps every call interruptible *)
  if r.runs = 0 then Budget.tick budget;
  r.accepting

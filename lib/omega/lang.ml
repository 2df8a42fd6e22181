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
(* Engine selection, inclusion and equality                            *)
(* ------------------------------------------------------------------ *)

(* [`Antichain] routes every query through the on-the-fly engine
   ({!Inclusion}, which short-cuts operands sharing one transition
   table); [`Explicit] always builds the complement-and-product, so the
   oracle replays same-table queries independently too.  The slot is
   the kernel's [Ambient] one, which [Pool.map] carries into tasks. *)
type engine = Ambient.engine

let engine = Ambient.engine
let with_engine = Ambient.with_engine

(* The oracle trims to the reachable part before [is_empty]: the
   product tabulates every pair, and [live_states] would walk them all. *)
let is_universal a =
  match engine () with
  | `Antichain -> Inclusion.is_universal a
  | `Explicit -> is_empty (Automaton.trim (Automaton.complement a))

let included ?pool:_ a b =
  match engine () with
  | `Antichain -> Inclusion.included a b
  | `Explicit ->
      Telemetry.incr (Telemetry.ambient ()) "lang.included.product";
      is_empty (Automaton.trim (Automaton.inter a (Automaton.complement b)))

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

let is_liveness (a : Automaton.t) =
  let live = live_states a in
  let reach = Automaton.reachable a in
  Array.for_all2 (fun r l -> (not r) || l) reach live

let safety_liveness_decomposition ?budget a =
  (safety_closure ?budget a, liveness_extension ?budget a)

(* ------------------------------------------------------------------ *)
(* Uniform liveness                                                    *)
(* ------------------------------------------------------------------ *)

(* Pi is uniformly live iff one word is accepted from every state
   reachable in >= 1 step: run the automaton from all those m states
   simultaneously and ask for a word accepted by every component.  The
   vector-state interning below is a subset construction — worst-case
   exponential in [a.n] — so the expansion loop ticks [?budget] once
   per interned vector state.  The joint condition is an [And] of m
   lifted copies of [a.acc], whose DNF width is the product of the
   copies' widths; [Emptiness.accepting_scc] decides it by SCC
   recursion, worst-case exponential in the number of distinct [Fin]
   sets left after restricting to an SCC, and checks the deadline of
   [?budget] (without spending fuel) at every recursion step. *)
let is_uniform_liveness ?(budget = Budget.unlimited) (a : Automaton.t) =
  let reach = Automaton.reachable a in
  let starts =
    List.sort_uniq Stdlib.compare
      (List.concat_map
         (fun q ->
           if reach.(q) then Array.to_list a.delta.(q) else [])
         (List.init a.n Fun.id))
  in
  let k = Alphabet.size a.alpha in
  let m = List.length starts in
  let index = Hashtbl.create 64 in
  let vectors = ref [] in
  let count = ref 0 in
  let intern v =
    match Hashtbl.find_opt index v with
    | Some i -> (i, true)
    | None ->
        let i = !count in
        incr count;
        Hashtbl.add index v i;
        vectors := (i, v) :: !vectors;
        (i, false)
  in
  let v0 = starts in
  let i0, _ = intern v0 in
  let rows = Hashtbl.create 64 in
  let queue = Queue.create () in
  Queue.add (i0, v0) queue;
  while not (Queue.is_empty queue) do
    let i, v = Queue.pop queue in
    if not (Hashtbl.mem rows i) then begin
      Budget.tick budget;
      let row =
        Array.init k (fun l ->
            let v' = List.map (fun q -> a.delta.(q).(l)) v in
            let j, existed = intern v' in
            if not existed then Queue.add (j, v') queue;
            j)
      in
      Hashtbl.add rows i row
    end
  done;
  let n' = !count in
  let delta = Array.init n' (fun i -> Hashtbl.find rows i) in
  (* component c of vector-state i *)
  let component = Array.make n' [||] in
  List.iter (fun (i, v) -> component.(i) <- Array.of_list v) !vectors;
  let lift c s =
    let out = ref Iset.empty in
    for i = 0 to n' - 1 do
      if Iset.mem component.(i).(c) s then out := Iset.add i !out
    done;
    !out
  in
  let acc =
    Acceptance.simplify
      (Acceptance.And
         (List.init m (fun c -> Acceptance.map_sets (lift c) a.acc)))
  in
  let joint = Automaton.make ~alpha:a.alpha ~n:n' ~start:i0 ~delta ~acc in
  (* every interned vector is reachable, so the region is all of them *)
  Emptiness.accepting_scc ~budget ~n:n' ~succ:(Automaton.successors joint) acc
    (Iset.init n' (fun _ -> true))
  <> None

module Alphabet = Finitary.Alphabet

(* ------------------------------------------------------------------ *)
(* Emptiness                                                           *)
(* ------------------------------------------------------------------ *)

(* This module owns the automaton-level emptiness core (it predates
   the on-the-fly engine and used to live in [Lang], which now
   re-exports it): the engine below needs [live_states] for pruning,
   and [Lang] needs the engine, so the core sits underneath both. *)

(* All states q such that a run entering q can be continued into an
   accepting run: backward reachability, in the full graph, to the
   states on accepting cycles. *)
let live_states ?budget (a : Automaton.t) =
  let good =
    Emptiness.accepting_states ?budget ~n:a.n ~succ:(Automaton.successors a)
      a.acc
      (Iset.init a.n (fun _ -> true))
  in
  let preds = Array.make a.n [] in
  Array.iteri
    (fun q row -> Array.iter (fun q' -> preds.(q') <- q :: preds.(q')) row)
    a.delta;
  let live = Array.make a.n false in
  let queue = Queue.create () in
  Iset.iter
    (fun q ->
      live.(q) <- true;
      Queue.add q queue)
    good;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    List.iter
      (fun p ->
        if not live.(p) then begin
          live.(p) <- true;
          Queue.add p queue
        end)
      preds.(q)
  done;
  live

let nonempty (a : Automaton.t) = (live_states a).(a.start)

let is_empty a = not (nonempty a)

(* ------------------------------------------------------------------ *)
(* On-the-fly inclusion                                                *)
(* ------------------------------------------------------------------ *)

(* [included a b] decides L(a) <= L(b) as emptiness of L(a) \ L(b),
   but — unlike the product oracle ([Automaton.inter a (complement b)])
   — never materializes the quadratic product table.  Both operands
   are complete and deterministic, so the antichain construction of
   Wulf-Doyen-Henzinger-Raskin degenerates into its sweet spot: every
   macro-state is a singleton pair, the subset product is just the
   reachable synchronous product, and a word is in the difference iff
   the pair run satisfies [acc_a /\ dual acc_b].  So the difference is
   non-empty iff {!Emptiness.on_the_fly} finds a reachable cycle of
   pairs satisfying it, and the search stops at the first one.

   - keys: the pair (qa, qb) is the key [qa * b.n + qb], and the
     position of a successor is its letter: the search asks for one
     letter's successor at a time, from [a.delta] and [b.delta], and
     only while the pair's frame is on top of its stack, so a search
     that accepts early never generates the rest.  The search's stacks
     and index start small and grow by chunks and pages, never copying
     what they hold, so the many tiny inclusions of a classification
     and a chain through a million pairs each pay for the pairs they
     reach.
   - dead-[a] pruning (the "simulation" order on pairs): a pair whose
     [a]-component cannot start an accepting [a]-run lies on no cycle
     of the difference and leads to none, so its letter answers
     [Emptiness.skip] and it is never generated.
     [live_states a] is one linear pass, amortized against the product
     search it avoids.
   - marks: each distinct atom set of [acc_a] and of [dual acc_b] is
     one mark index, and a pair carries the marks of the atoms its [a]-
     or [b]-component lies in. *)

let diff_nonempty ~budget ~telemetry:tl (a : Automaton.t) (b : Automaton.t) =
  if not (Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Inclusion.included: alphabet mismatch";
  Telemetry.span tl "inclusion.search" @@ fun () ->
  let a_live = live_states a in
  if not a_live.(a.start) then false (* L(a) empty: nothing to include *)
  else begin
    let k = Alphabet.size a.alpha and nb = b.n in
    let acc_a, marks_a, first =
      Acceptance.number_atoms ~first:0 ~n:a.n a.acc
    in
    let acc_b, marks_b, _ =
      Acceptance.number_atoms ~first ~n:nb (Acceptance.dual b.acc)
    in
    let pruned = ref 0 in
    let succ key l =
      if l >= k then Emptiness.past_end
      else
        let qa = a.delta.(key / nb).(l) in
        if a_live.(qa) then (qa * nb) + b.delta.(key mod nb).(l)
        else begin
          incr pruned;
          Emptiness.skip
        end
    in
    let r =
      Emptiness.on_the_fly ~budget
        ~marks:(fun key -> Iset.union marks_a.(key / nb) marks_b.(key mod nb))
        ~succ
        (Acceptance.simplify (Acceptance.And [ acc_a; acc_b ]))
        ((a.start * nb) + b.start)
    in
    Telemetry.add tl "inclusion.pairs" r.visited;
    Telemetry.add tl "inclusion.pruned" !pruned;
    r.accepting
  end

let included ?(budget = Budget.unlimited) ?telemetry (a : Automaton.t)
    (b : Automaton.t) =
  let tl =
    match telemetry with Some t -> t | None -> Telemetry.ambient ()
  in
  if a.delta == b.delta && a.start = b.start then begin
    (* one shared run per word: inclusion is emptiness of
       [acc_a /\ dual acc_b] over the shared graph, no product at all *)
    Telemetry.incr tl "inclusion.same_table";
    is_empty
      (Automaton.with_acc a
         (Acceptance.simplify
            (Acceptance.And [ a.acc; Acceptance.dual b.acc ])))
  end
  else not (diff_nonempty ~budget ~telemetry:tl a b)

let equal ?budget ?telemetry a b =
  included ?budget ?telemetry a b && included ?budget ?telemetry b a

let is_universal ?budget ?telemetry (a : Automaton.t) =
  included ?budget ?telemetry (Automaton.full a.alpha) a

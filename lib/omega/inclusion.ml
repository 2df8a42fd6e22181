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
   but — unlike the explicit path ([Automaton.inter a (complement b)])
   — never materializes the quadratic product table.  Both operands
   are complete and deterministic, so the antichain construction of
   Wulf-Doyen-Henzinger-Raskin degenerates into its sweet spot: every
   macro-state is a singleton pair, the subset product is just the
   reachable synchronous product, and we explore exactly the pairs
   (qa, qb) some finite word actually reaches — typically a sliver of
   the n_a * n_b square the explicit product allocates up front.

   Two prunings keep the frontier small:
   - dead-[a] pruning (the "simulation" order on pairs): a pair whose
     [a]-component cannot start an accepting [a]-run contributes
     nothing to the difference language, so it is collapsed into a
     single absorbing reject sink (pair id 0).  [live_states a] is one
     linear pass, amortized against the product exploration it avoids.
   - interning: pairs are hash-consed to dense ids (in BFS order), so
     the SCC scan at the end runs on arrays, not on a map of pairs.
     The index is an open-addressed {!Int_index} keyed by the int code
     [qa * b.n + qb]: one probe sequence over two flat int arrays finds
     a pair or claims its slot, and a binding allocates nothing.  It
     (like the pair vectors) starts small and grows by doubling, so the
     many tiny inclusions of a classification pay for the pairs they
     reach, not for a large first table.

   Acceptance over the explored graph lifts each atom to the pairs
   whose component lies in it: [a]'s atoms through the [a]-component,
   the atoms of [b]'s dual through the [b]-component.  Because every
   interned pair is reachable by construction, the difference is
   non-empty iff {!Emptiness.accepting_scc} finds a cycle of pairs
   satisfying [acc_a /\ dual acc_b] anywhere in the explored graph —
   no separate reachability pass. *)

(* Growable int vector (OCaml 5.1 has no [Dynarray] yet). *)
type ivec = { mutable data : int array; mutable len : int }

let ivec_create () = { data = Array.make 16 0; len = 0 }

let ivec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

type explored = {
  pqa : ivec;  (** pair id -> [a]-state ([-1] for the sink, id 0) *)
  pqb : ivec;
  psucc : ivec;
      (** successor ids, [Alphabet.size] per pair: pair [i]'s successor on
          letter [l] is at [i * Alphabet.size + l] *)
  start_id : int;  (** [0] iff [a]'s start state is already dead *)
}

let explore ~budget ~telemetry:tl (a : Automaton.t) (b : Automaton.t) =
  let k = Alphabet.size a.alpha in
  let a_live = live_states a in
  let pqa = ivec_create () and pqb = ivec_create () in
  let psucc = ivec_create () in
  (* pair key [qa * b.n + qb] -> dense id *)
  let index = Int_index.create 8 in
  (* id 0: the absorbing reject sink for dead-[a] pairs *)
  ivec_push pqa (-1);
  ivec_push pqb (-1);
  for _ = 1 to k do
    ivec_push psucc 0
  done;
  let pruned = ref 0 in
  let intern qa qb =
    if not a_live.(qa) then begin
      incr pruned;
      0
    end
    else
      let fresh = pqa.len in
      let id = Int_index.find_or_add index ((qa * b.Automaton.n) + qb) fresh in
      if id = fresh then begin
        ivec_push pqa qa;
        ivec_push pqb qb
      end;
      id
  in
  let start_id = intern a.start b.start in
  let i = ref 1 in
  while !i < pqa.len do
    Budget.tick budget;
    let qa = pqa.data.(!i) and qb = pqb.data.(!i) in
    (* pair [i]'s row is pushed right after pair [i - 1]'s, letters in
       order, which also fixes the order ids are handed out in *)
    for l = 0 to k - 1 do
      ivec_push psucc (intern a.delta.(qa).(l) b.delta.(qb).(l))
    done;
    incr i
  done;
  Telemetry.add tl "inclusion.pairs" (pqa.len - 1);
  Telemetry.add tl "inclusion.pruned" !pruned;
  { pqa; pqb; psucc; start_id }

let diff_nonempty ~budget ~telemetry:tl (a : Automaton.t) (b : Automaton.t) =
  if not (Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Inclusion.included: alphabet mismatch";
  let e =
    Telemetry.span tl "inclusion.explore" (fun () ->
        explore ~budget ~telemetry:tl a b)
  in
  if e.start_id = 0 then false (* L(a) empty: nothing left to include *)
  else
    Telemetry.span tl "inclusion.emptiness" (fun () ->
        let count = e.pqa.len in
        let k = Alphabet.size a.alpha in
        (* the sink (id 0) lies in no atom and outside the region: a
           cycle through it would otherwise satisfy a pure-[Fin]
           condition *)
        let lift component =
          Acceptance.map_sets (fun s ->
              Iset.init count (fun i ->
                  i <> 0 && Iset.mem component.data.(i) s))
        in
        let acc =
          Acceptance.And
            [ lift e.pqa a.acc; lift e.pqb (Acceptance.dual b.acc) ]
        in
        Emptiness.accepting_scc ~budget ~n:count
          ~succ:(fun i -> List.init k (fun l -> e.psucc.data.((i * k) + l)))
          acc
          (Iset.init count (fun i -> i <> 0))
        <> None)

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

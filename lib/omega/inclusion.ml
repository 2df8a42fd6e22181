module Alphabet = Finitary.Alphabet

(* ------------------------------------------------------------------ *)
(* Emptiness                                                           *)
(* ------------------------------------------------------------------ *)

(* This module owns the emptiness core (it predates the on-the-fly
   engine and used to live in [Lang], which now re-exports it): the
   engine below needs [live_states] for pruning, and [Lang] needs the
   engine, so the core sits underneath both. *)

(* SCCs of the automaton graph restricted to states outside [fin]. *)
let restricted_sccs (a : Automaton.t) fin =
  Graph_kernel.sccs_in ~n:a.n ~succ:(Automaton.successors a)
    ~allowed:(fun q -> not (Iset.mem q fin))

let scc_nontrivial (a : Automaton.t) fin comp =
  Graph_kernel.nontrivial
    ~succ:(fun q ->
      List.filter
        (fun q' -> not (Iset.mem q' fin))
        (Automaton.successors a q))
    comp

(* All states q such that a run entering q can be continued into an
   accepting run: q can reach (in the full graph) an SCC qualifying for
   some DNF conjunct of the acceptance condition.

   Each DNF conjunct costs one restricted Tarjan pass over the whole
   graph, and the conjuncts are independent, so multi-conjunct
   conditions fan out on [?pool].  The parent budget is ticked once
   per conjunct {e at the merge}, in conjunct order, on the submitting
   domain — never from tasks — so the tick sequence (and hence any
   trip position) is bit-identical with and without a pool, at every
   job count. *)
let good_scc_states ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?pool (a : Automaton.t) =
  let conjuncts = Acceptance.dnf a.acc in
  let conjunct_states (fin, infs) =
    List.fold_left
      (fun acc comp ->
        if
          scc_nontrivial a fin comp
          && List.for_all
               (fun inf -> List.exists (fun q -> Iset.mem q inf) comp)
               infs
        then Iset.union acc (Iset.of_list comp)
        else acc)
      Iset.empty (restricted_sccs a fin)
  in
  match pool with
  | Some p when List.compare_length_with conjuncts 1 > 0 ->
      (* tasks run on unlimited replicas (they never tick); the parent
         budget is ticked once per conjunct at the merge below, so it
         observes the same k ticks as the sequential branch *)
      let sets =
        Pool.map ~telemetry ~seq_below:0 p
          (fun _ctx c -> conjunct_states c)
          conjuncts
      in
      List.fold_left
        (fun acc s ->
          Budget.tick budget;
          Iset.union acc s)
        Iset.empty sets
  | _ ->
      List.fold_left
        (fun acc c ->
          Budget.tick budget;
          Iset.union acc (conjunct_states c))
        Iset.empty conjuncts

let live_states ?budget ?telemetry ?pool (a : Automaton.t) =
  let good = good_scc_states ?budget ?telemetry ?pool a in
  (* backward reachability to [good] in the full graph *)
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

let rec first_fin = function
  | Acceptance.Fin x -> Some x
  | And l | Or l -> List.find_map first_fin l
  | True | False | Inf _ -> None

let rec fin_false x = function
  | Acceptance.Fin y when Iset.equal x y -> Acceptance.False
  | And l -> And (List.map (fin_false x) l)
  | Or l -> Or (List.map (fin_false x) l)
  | acc -> acc

(* The cycle-carrying SCCs of the subgraph induced on [region], at a
   cost proportional to [region]: the recursion below splits one SCC at
   a time.  A singleton of the region carries a cycle iff it has a
   self-loop, which stays inside it. *)
let cycle_sccs (a : Automaton.t) region =
  let succ = Automaton.successors a in
  List.filter_map
    (fun comp ->
      if Graph_kernel.nontrivial ~succ comp then Some (Iset.of_list comp)
      else None)
    (Graph_kernel.sccs_region ~n:a.n ~succ region)

let restrict acc s = Acceptance.simplify (Acceptance.map_sets (Iset.inter s) acc)

(* Emerson-Lei emptiness by SCC recursion (Baier, Blahoudek,
   Duret-Lutz, Klein, Mueller, Strejcek, "Generic emptiness check for
   fun and profit", ATVA 2019).  The condition is never put in DNF:
   on each cycle-carrying SCC [s] it is restricted to [s] (atom sets
   intersected with [s], so [Inf X] with X∩s=∅ is [False] and [Fin X]
   with X∩s=∅ is [True]) and simplified.  A [Fin]-free remainder is
   monotone, so the cycle through all of [s] decides it.  Otherwise
   one [Fin X] splits the search: an infinity set avoiding X lives in
   an SCC of s∖X, one meeting X falsifies [Fin X] and stays on [s].
   Every step either drops a distinct [Fin] atom or shrinks [s], so
   the worst case is exponential in the number of distinct [Fin] sets
   after restriction.  [Budget.check] per step bounds it by the
   deadline without spending fuel. *)
let exists_accepting_cycle ?(budget = Budget.unlimited) (a : Automaton.t) =
  let rec accepting acc s =
    Budget.check budget;
    match restrict acc s with
    | True -> true
    | False -> false
    | acc -> (
        match first_fin acc with
        | None -> Acceptance.eval acc s
        | Some x ->
            List.exists (accepting acc)
              (cycle_sccs a (Iset.diff s x))
            || accepting (fin_false x acc) s)
  in
  let reach = Automaton.reachable a in
  List.exists (accepting a.acc)
    (cycle_sccs a (Iset.init a.n (fun q -> reach.(q))))

(* The same recursion, collecting instead of deciding.  On a cycle [s]
   that [acc] rejects, the [Fin X] split yields two families: [r1],
   from the SCCs of s∖X (members of different SCCs are disjoint, so
   only [r2] can subsume them), and [r2], from [s] with [Fin X] false.
   Every accepting cycle inside [s] lies under a member of one of them,
   so dropping the members strictly below another member of the other
   family (and one of two equal members) keeps that cover and leaves
   exactly the maximal accepting cycles. *)
let maximal_accepting_cycles ?(budget = Budget.unlimited) (a : Automaton.t) acc
    s =
  let merge r1 r2 =
    match (r1, r2) with
    | [], r | r, [] -> r
    | _ ->
        let strictly_below c d = Iset.subset c d && not (Iset.equal c d) in
        List.filter (fun c -> not (List.exists (Iset.subset c) r2)) r1
        @ List.filter (fun c -> not (List.exists (strictly_below c) r1)) r2
  in
  let rec maximal acc s =
    Budget.check budget;
    if Acceptance.eval acc s then [ s ]
    else
      let acc = restrict acc s in
      match first_fin acc with
      | None -> [] (* [Fin]-free, so monotone: [s] failing it decides *)
      | Some x ->
          merge
            (List.concat_map (maximal acc)
               (cycle_sccs a (Iset.diff s x)))
            (maximal (fin_false x acc) s)
  in
  maximal acc s

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

   Acceptance over the explored graph is evaluated positionally: an
   atom of [a] keeps its state set, an atom of [b]'s dual is shifted
   by [a.n], and a pair (qa, qb) belongs to a shifted set s iff
   [qa in s] or [a.n + qb in s].  Because every interned pair is
   reachable by construction, the difference is non-empty iff some DNF
   conjunct of [acc_a /\ dual acc_b] owns a qualifying non-trivial SCC
   anywhere in the explored graph — no separate reachability pass. *)

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

let explore ~budget ~telemetry:tl ?pool (a : Automaton.t) (b : Automaton.t) =
  let k = Alphabet.size a.alpha in
  let a_live = live_states ?pool ~telemetry:tl a in
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

let diff_nonempty ~budget ~telemetry:tl ?pool (a : Automaton.t) (b : Automaton.t)
    =
  if not (Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Inclusion.included: alphabet mismatch";
  let e =
    Telemetry.span tl "inclusion.explore" (fun () ->
        explore ~budget ~telemetry:tl ?pool a b)
  in
  if e.start_id = 0 then false (* L(a) empty: nothing left to include *)
  else
    Telemetry.span tl "inclusion.emptiness" (fun () ->
        let an = a.n in
        let mem i s =
          Iset.mem e.pqa.data.(i) s || Iset.mem (an + e.pqb.data.(i)) s
        in
        let shift s =
          Iset.fold (fun q acc -> Iset.add (q + an) acc) s Iset.empty
        in
        let conjuncts =
          Acceptance.dnf
            (Acceptance.And
               [ a.acc; Acceptance.map_sets shift (Acceptance.dual b.acc) ])
        in
        let count = e.pqa.len in
        let k = Alphabet.size a.alpha in
        let succ i = List.init k (fun l -> e.psucc.data.((i * k) + l)) in
        let conjunct_nonempty budget (fin, infs) =
          Budget.check budget;
          (* the sink (id 0) is excluded everywhere: a cycle through
             it would otherwise satisfy a pure-[Fin] conjunct *)
          let allowed i = i <> 0 && not (mem i fin) in
          List.exists
            (fun comp ->
              Graph_kernel.nontrivial
                ~succ:(fun i -> List.filter allowed (succ i))
                comp
              && List.for_all
                   (fun inf -> List.exists (fun i -> mem i inf) comp)
                   infs)
            (Graph_kernel.sccs_in ~n:count ~succ ~allowed)
        in
        match pool with
        | Some p when List.compare_length_with conjuncts 1 > 0 ->
            (* each conjunct re-scans the explored graph (one
               restricted Tarjan per conjunct), and the conjuncts are
               independent; [exists] keeps the left-to-right
               short-circuit observable semantics.  Conjunct bodies
               only [check] their replica (zero ticks), so the parent
               budget is bit-identical to the sequential scan. *)
            Pool.exists ~budget ~telemetry:tl ~seq_below:0 p
              (fun ctx c -> conjunct_nonempty ctx.Pool.budget c)
              conjuncts
        | _ -> List.exists (conjunct_nonempty budget) conjuncts)

let included ?(budget = Budget.unlimited) ?telemetry ?pool (a : Automaton.t)
    (b : Automaton.t) =
  let tl =
    match telemetry with Some t -> t | None -> Telemetry.ambient ()
  in
  let pool = Pool.effective ~budget ~telemetry:tl pool in
  if a.delta == b.delta && a.start = b.start then begin
    (* one shared run per word: inclusion is emptiness of
       [acc_a /\ dual acc_b] over the shared graph, no product at all *)
    Telemetry.incr tl "inclusion.same_table";
    is_empty
      (Automaton.with_acc a
         (Acceptance.simplify
            (Acceptance.And [ a.acc; Acceptance.dual b.acc ])))
  end
  else not (diff_nonempty ~budget ~telemetry:tl ?pool a b)

let equal ?budget ?telemetry ?pool a b =
  included ?budget ?telemetry ?pool a b && included ?budget ?telemetry ?pool b a

let is_universal ?budget ?telemetry ?pool (a : Automaton.t) =
  included ?budget ?telemetry ?pool (Automaton.full a.alpha) a

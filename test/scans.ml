(* Wagner's cycle conditions (section 5.1) by direct SCC scans, and
   safety and guarantee by the closure characterization (section 2):
   the oracle for the columns [Classify] reads off its alternating cycle
   decomposition.  Recurrence loops over the clauses of the dual
   condition's conjunctive normal form, which can be exponential;
   persistence is recurrence of the complement; obligation and its
   degree read two Emerson-Lei searches per SCC. *)

open Omega

(* Inclusion by complement and product: L(a) <= L(b) iff the product of
   [a] with the complement of [b] is empty.  The oracle for
   [Lang.included], decided independently of [Inclusion]'s on-the-fly
   search: it builds the complement and the product's reachable pairs
   on every query, same-table operands included, and runs the emptiness
   check on the whole of that table.  The [trim] is a no-op on a
   product, which has no unreachable state. *)
let included_by_product a b =
  Lang.is_empty (Automaton.trim (Automaton.inter a (Automaton.complement b)))

let equal_by_product a b = included_by_product a b && included_by_product b a

let is_universal_by_product a =
  Lang.is_empty (Automaton.trim (Automaton.complement a))

(* Safety: the property equals its safety closure A(Pref(Pi)); guarantee
   is safety of the complement. *)
let is_safety a = Lang.equal a (Lang.safety_closure a)
let is_guarantee a = is_safety (Automaton.complement a)

(* SCCs of the subgraph induced on [allowed] (reachable part only). *)
let sccs_within (a : Automaton.t) allowed =
  Graph_kernel.sccs_region ~n:a.n ~succ:(Automaton.successors a) allowed

let nontrivial (a : Automaton.t) within comp =
  Graph_kernel.nontrivial
    ~succ:(fun q ->
      List.filter (fun q' -> Iset.mem q' within) (Automaton.successors a q))
    comp

(* Does [region] contain a cycle satisfying [acc]? *)
let has_cycle (a : Automaton.t) acc region =
  Emptiness.accepting_scc ~n:a.n ~succ:(Automaton.successors a) acc region
  <> None

let reachable_set (a : Automaton.t) =
  let reach = Automaton.reachable a in
  Iset.init a.n (fun q -> reach.(q))

(* Recurrence: no rejecting cycle contains an accepting cycle.  A cycle
   is rejecting iff it fits some dual clause (x, ys): it avoids x and
   meets every y in ys.  If any such rejecting cycle A contains an
   accepting one, so does the whole SCC S of (graph minus x) around A:
   S avoids x, still meets every y, and is itself a (rejecting) cycle
   containing the accepting witness.  So scanning those SCCs is exact. *)
let is_recurrence (a : Automaton.t) =
  let reach = reachable_set a in
  List.for_all
    (fun (x, ys) ->
      let allowed = Iset.diff reach x in
      List.for_all
        (fun comp ->
          let s = Iset.of_list comp in
          (not (nontrivial a allowed comp))
          || List.exists (fun y -> Iset.disjoint s y) ys
          || not (has_cycle a a.acc s))
        (sccs_within a allowed))
    (Acceptance.cnf a.acc)

let is_persistence a = is_recurrence (Automaton.complement a)

(* Each reachable cycle-carrying SCC with whether it carries an
   accepting and a rejecting cycle. *)
let scc_flags (a : Automaton.t) =
  let reach = reachable_set a in
  List.filter_map
    (fun comp ->
      if not (nontrivial a reach comp) then None
      else
        let s = Iset.of_list comp in
        Some (s, has_cycle a a.acc s, has_cycle a (Acceptance.dual a.acc) s))
    (sccs_within a reach)

let is_obligation a =
  List.for_all (fun (_, acc, rej) -> not (acc && rej)) (scc_flags a)

(* Obligation degree: one more than the best accepting count of a
   flag-alternating reachability chain of SCCs starting and ending
   rejecting; [None] when some SCC carries both flags. *)
let obligation_degree (a : Automaton.t) =
  let flags = scc_flags a in
  if List.exists (fun (_, acc, rej) -> acc && rej) flags then None
  else begin
    let arr =
      Array.of_list
        (List.map
           (fun (s, acc, _) ->
             ( s,
               acc,
               Graph_kernel.reachable ~n:a.n ~succ:(Automaton.successors a)
                 ~starts:(Iset.elements s) ))
           flags)
    in
    let m = Array.length arr in
    let reaches i j =
      let _, _, r = arr.(i) in
      let sj, _, _ = arr.(j) in
      i <> j && Iset.exists (fun q -> r.(q)) sj
    in
    let memo = Array.make m min_int in
    let rec chain i =
      if memo.(i) > min_int then memo.(i)
      else begin
        let _, fi, _ = arr.(i) in
        let best = ref (if fi then min_int else 0) in
        for j = 0 to m - 1 do
          if reaches i j then begin
            let _, fj, _ = arr.(j) in
            if fj <> fi then
              let cj = chain j in
              if cj > min_int then
                best := max !best (cj + if fi then 1 else 0)
          end
        done;
        memo.(i) <- !best;
        !best
      end
    in
    let deg_raw = ref 0 in
    for i = 0 to m - 1 do
      let _, fi, _ = arr.(i) in
      if not fi then deg_raw := max !deg_raw (chain i)
    done;
    Some
      (if List.exists (fun (_, acc, _) -> acc) flags then !deg_raw + 1
       else 0)
  end

(* The four tree reads agree with the scans. *)
let agrees a =
  Classify.is_recurrence a = is_recurrence a
  && Classify.is_persistence a = is_persistence a
  && Classify.is_obligation a = is_obligation a
  && Classify.obligation_degree a = obligation_degree a

(* The safety and guarantee reads agree with closure equality. *)
let closure_agrees a =
  Classify.is_safety a = is_safety a
  && Classify.is_guarantee a = is_guarantee a

(* Liveness by backward reachability: every reachable state reaches an
   accepting cycle ({!Lang.live_states}). *)
let is_liveness (a : Automaton.t) =
  let live = Lang.live_states a in
  let reach = Automaton.reachable a in
  Array.for_all2 (fun r l -> (not r) || l) reach live

(* Counter-freedom on the whole transition monoid of the trimmed
   automaton, generated by the letter transformations breadth-first:
   counter-free iff every element is aperiodic. *)
let compose f g = Array.map (fun q -> g.(q)) f

let monoid ?(max_monoid = 200000) a =
  let a = Automaton.trim a in
  let gens =
    List.init (Finitary.Alphabet.size a.alpha) (fun l ->
        Array.init a.n (fun q -> a.delta.(q).(l)))
  in
  let seen = Hashtbl.create 256 in
  let elements = ref [] in
  let queue = Queue.create () in
  let add f =
    if not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      if Hashtbl.length seen > max_monoid then
        raise (Counter_free.Monoid_too_large (Hashtbl.length seen));
      elements := f :: !elements;
      Queue.add f queue
    end
  in
  List.iter add gens;
  while not (Queue.is_empty queue) do
    let f = Queue.pop queue in
    List.iter (fun g -> add (compose f g)) gens
  done;
  !elements

(* f is aperiodic iff iterating powers reaches a fixpoint (cycle of
   length 1); a cycle of length > 1 exhibits modulo counting. *)
let aperiodic f =
  let seen = Hashtbl.create 16 in
  let rec iter g i =
    match Hashtbl.find_opt seen g with
    | Some j -> i - j = 1
    | None ->
        Hashtbl.add seen g i;
        let g' = compose g f in
        if g' = g then true else iter g' (i + 1)
  in
  iter f 0

let is_counter_free ?max_monoid a =
  List.for_all aperiodic (monoid ?max_monoid a)

let monoid_size ?max_monoid a = List.length (monoid ?max_monoid a)

module Alphabet = Finitary.Alphabet
module Word = Finitary.Word

type t = {
  alpha : Alphabet.t;
  n : int;
  start : int;
  delta : int array array;
  acc : Acceptance.t;
  succ_table : int list array Atomic.t;
      (* per-state deduplicated successor lists, built lazily on the
         first [successors] call; [[||]] means "not yet computed".
         Domain-safety: the table itself is installed by CAS (losers
         adopt the winner's array); row fills are plain idempotent
         writes — racing domains compute equal lists, and initializing
         writes of freshly allocated immutable lists are published
         with the pointer under the OCaml memory model, so a racy
         reader sees either [] (recompute) or a complete equal list.
         [{a with acc}] copies share the cell, so acceptance variants
         of one structure share the memo. *)
}

let make ~alpha ~n ~start ~delta ~acc =
  if n <= 0 then invalid_arg "Automaton.make: need at least one state";
  if start < 0 || start >= n then invalid_arg "Automaton.make: bad start";
  if Array.length delta <> n then invalid_arg "Automaton.make: bad table";
  let k = Alphabet.size alpha in
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Automaton.make: bad row";
      Array.iter
        (fun q ->
          if q < 0 || q >= n then invalid_arg "Automaton.make: bad target")
        row)
    delta;
  if
    not
      (Iset.for_all (fun q -> q >= 0 && q < n) (Acceptance.states acc))
  then invalid_arg "Automaton.make: acceptance mentions unknown state";
  { alpha; n; start; delta; acc; succ_table = Atomic.make [||] }

let with_acc a acc =
  if
    not (Iset.for_all (fun q -> q >= 0 && q < a.n) (Acceptance.states acc))
  then invalid_arg "Automaton.with_acc: acceptance mentions unknown state";
  { a with acc }

let const alpha acc =
  let k = Alphabet.size alpha in
  {
    alpha;
    n = 1;
    start = 0;
    delta = [| Array.make k 0 |];
    acc;
    succ_table = Atomic.make [||];
  }

let empty_lang alpha = const alpha Acceptance.False

let full alpha = const alpha Acceptance.True

let step a q letter = a.delta.(q).(letter)

let run a w = Array.fold_left (fun q letter -> step a q letter) a.start w

let infinity_set a lasso =
  let q0 = run a lasso.Word.prefix in
  (* iterate the cycle word from q0 until the entry state repeats *)
  let cycle_step q = Array.fold_left (fun q l -> step a q l) q lasso.Word.cycle in
  let seen = Hashtbl.create 16 in
  let rec find_loop q order =
    if Hashtbl.mem seen q then Hashtbl.find seen q
    else begin
      Hashtbl.add seen q (List.length order);
      find_loop (cycle_step q) (q :: order)
    end
  in
  let entry_index = find_loop q0 [] in
  (* states with index >= entry_index are on the loop of cycle-iterates;
     collect every state passed through while reading the cycle from each
     looping iterate *)
  let states = ref Iset.empty in
  Hashtbl.iter
    (fun q idx ->
      if idx >= entry_index then begin
        let cur = ref q in
        Array.iter
          (fun l ->
            states := Iset.add !cur !states;
            cur := step a !cur l)
          lasso.Word.cycle
      end)
    seen;
  !states

let accepts a lasso = Acceptance.eval a.acc (infinity_set a lasso)

let complement a = { a with acc = Acceptance.dual a.acc }

let product combine a b =
  if not (Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Automaton.product: alphabet mismatch";
  let k = Alphabet.size a.alpha in
  let n = a.n * b.n in
  let code qa qb = (qa * b.n) + qb in
  let delta =
    Array.init n (fun q ->
        let qa = q / b.n and qb = q mod b.n in
        Array.init k (fun l -> code a.delta.(qa).(l) b.delta.(qb).(l)))
  in
  let lift_a s =
    Iset.fold
      (fun qa acc ->
        List.fold_left (fun acc qb -> Iset.add (code qa qb) acc) acc
          (List.init b.n Fun.id))
      s Iset.empty
  in
  let lift_b s =
    Iset.fold
      (fun qb acc ->
        List.fold_left (fun acc qa -> Iset.add (code qa qb) acc) acc
          (List.init a.n Fun.id))
      s Iset.empty
  in
  let acc =
    Acceptance.simplify
      (combine
         (Acceptance.map_sets lift_a a.acc)
         (Acceptance.map_sets lift_b b.acc))
  in
  {
    alpha = a.alpha;
    n;
    start = code a.start b.start;
    delta;
    acc;
    succ_table = Atomic.make [||];
  }

let inter = product (fun x y -> Acceptance.And [ x; y ])

let union = product (fun x y -> Acceptance.Or [ x; y ])

let diff a b = inter a (complement b)

(* Deduplicated, sorted successor list of one state.  Below 64 states
   the dedup runs through a single int bitmask — [List.sort_uniq]'s
   closure and list churn is measurable on the tiny-graph benches. *)
let succ_row a q =
  let row = a.delta.(q) in
  if a.n <= 63 then begin
    let seen = ref 0 in
    Array.iter (fun q' -> seen := !seen lor (1 lsl q')) row;
    let l = ref [] in
    for q' = a.n - 1 downto 0 do
      if !seen land (1 lsl q') <> 0 then l := q' :: !l
    done;
    !l
  end
  else List.sort_uniq Stdlib.compare (Array.to_list row)

let successors a q =
  let table =
    let cur = Atomic.get a.succ_table in
    if Array.length cur > 0 then cur
    else
      let fresh = Array.make a.n [] in
      if Atomic.compare_and_set a.succ_table cur fresh then fresh
      else Atomic.get a.succ_table
  in
  match table.(q) with
  | [] ->
      (* rows are never empty (automata are complete), so [[]] doubles
         as the not-yet-computed marker; building per row keeps one-shot
         traversals from paying for states they never visit *)
      Telemetry.incr (Telemetry.ambient ()) "automaton.successors.miss";
      let l = succ_row a q in
      table.(q) <- l;
      l
  | l ->
      Telemetry.incr (Telemetry.ambient ()) "automaton.successors.hit";
      l

let reachable a =
  Graph_kernel.reachable ~n:a.n ~succ:(successors a) ~starts:[ a.start ]

let trim a =
  let seen = reachable a in
  let remap = Array.make a.n (-1) in
  let count = ref 0 in
  Array.iteri
    (fun q s ->
      if s then begin
        remap.(q) <- !count;
        incr count
      end)
    seen;
  let n = !count in
  let delta = Array.make n [||] in
  Array.iteri
    (fun q s ->
      if s then
        delta.(remap.(q)) <- Array.map (fun q' -> remap.(q')) a.delta.(q))
    seen;
  let acc =
    Acceptance.simplify
      (Acceptance.map_sets
         (fun s ->
           Iset.filter_map
             (fun q -> if q >= 0 && q < a.n && seen.(q) then Some remap.(q) else None)
             s)
         a.acc)
  in
  {
    a with
    n;
    start = remap.(a.start);
    delta;
    acc;
    succ_table = Atomic.make [||];
  }

let sccs a = Graph_kernel.sccs ~n:a.n ~succ:(successors a)

let pp ppf a =
  Fmt.pf ppf "@[<v>ω-automaton over %a: %d states, start %d, acc %a@,"
    Alphabet.pp a.alpha a.n a.start Acceptance.pp a.acc;
  for q = 0 to a.n - 1 do
    Fmt.pf ppf "  %d:" q;
    Array.iteri
      (fun l q' -> Fmt.pf ppf " %s->%d" (Alphabet.letter_name a.alpha l) q')
      a.delta.(q);
    Fmt.cut ppf ()
  done;
  Fmt.pf ppf "@]"

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

(* The codes in [0 .. codes-1] reachable from [start], where [fill c
   row] writes code [c]'s successor codes into [row].  A BFS over one
   scratch row discovers the codes, with [index] mapping each to its
   discovery number and [found] as the queue; then codes get states in
   code order, as [trim] numbers them, and a second [fill] per kept
   code writes its row in states.  Filling twice is cheaper than
   keeping the targets: a table that grows is copied, and one sized
   for every code is the full product again.  [acc kept] gives the
   acceptance condition over the states, [kept.(i)] being state [i]'s
   code. *)
let explore alpha ~codes ~start fill acc =
  let k = Alphabet.size alpha in
  let index = Array.make codes (-1) and found = Array.make codes 0 in
  let row = Array.make k 0 in
  index.(start) <- 0;
  found.(0) <- start;
  let count = ref 1 and j = ref 0 in
  while !j < !count do
    fill found.(!j) row;
    for l = 0 to k - 1 do
      let c = row.(l) in
      if index.(c) < 0 then begin
        index.(c) <- !count;
        found.(!count) <- c;
        incr count
      end
    done;
    incr j
  done;
  let n = !count in
  let kept = Array.make n 0 in
  let i = ref 0 in
  for c = 0 to codes - 1 do
    if index.(c) >= 0 then begin
      kept.(!i) <- c;
      index.(c) <- !i;
      incr i
    end
  done;
  let delta =
    Array.init n (fun i ->
        fill kept.(i) row;
        let r = Array.make k 0 in
        for l = 0 to k - 1 do
          r.(l) <- index.(row.(l))
        done;
        r)
  in
  {
    alpha;
    n;
    start = index.(start);
    delta;
    acc = Acceptance.simplify (acc kept);
    succ_table = Atomic.make [||];
  }

(* A set over codes, read back over the kept states through [code]. *)
let lift kept code s =
  Iset.init (Array.length kept) (fun i -> Iset.mem (code kept.(i)) s)

(* A pair is the code [(qa lsl s) lor qb], [s] the bits of [b.n]: the
   order of [qa * b.n + qb], read back with a shift and a mask. *)
let product combine a b =
  if not (Alphabet.equal a.alpha b.alpha) then
    invalid_arg "Automaton.product: alphabet mismatch";
  let k = Alphabet.size a.alpha in
  let s =
    let rec bits s = if 1 lsl s >= b.n then s else bits (s + 1) in
    bits 0
  in
  let mask = (1 lsl s) - 1 in
  let fill c row =
    let ra = a.delta.(c lsr s) and rb = b.delta.(c land mask) in
    for l = 0 to k - 1 do
      row.(l) <- (ra.(l) lsl s) lor rb.(l)
    done
  in
  explore a.alpha ~codes:(a.n lsl s) ~start:((a.start lsl s) lor b.start) fill
    (fun kept ->
      combine
        (Acceptance.map_sets (lift kept (fun c -> c lsr s)) a.acc)
        (Acceptance.map_sets (lift kept (fun c -> c land mask)) b.acc))

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
  explore a.alpha ~codes:a.n ~start:a.start
    (fun q row ->
      let r = a.delta.(q) in
      for l = 0 to Array.length row - 1 do
        row.(l) <- r.(l)
      done)
    (fun kept -> Acceptance.map_sets (lift kept Fun.id) a.acc)

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

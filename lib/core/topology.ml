module Automaton = Omega.Automaton

let distance = Finitary.Word.distance

let closure a = Omega.Lang.safety_closure a

let interior a = Automaton.complement (closure (Automaton.complement a))

let is_closed a = Omega.Classify.is_safety a

let is_open a = Omega.Classify.is_guarantee a

let is_g_delta a = Omega.Classify.is_recurrence a

let is_f_sigma a = Omega.Classify.is_persistence a

let is_dense = Omega.Lang.is_liveness

let is_limit_of a lasso = Automaton.accepts (closure a) lasso

(* G_j: the run visits the Buechi set at least j times — an open set;
   tracked by a saturating counter. *)
let nth_open (b : Automaton.t) acc_set j =
  let k = Finitary.Alphabet.size b.alpha in
  let code q c = (q * (j + 1)) + c in
  let n = b.n * (j + 1) in
  let delta =
    Array.init n (fun s ->
        let q = s / (j + 1) and c = s mod (j + 1) in
        Array.init k (fun l ->
            let q' = b.delta.(q).(l) in
            let c' =
              if c < j && Iset.mem q' acc_set then c + 1 else c
            in
            code q' c'))
  in
  let full = ref Iset.empty in
  for q = 0 to b.n - 1 do
    full := Iset.add (code q j) !full
  done;
  Automaton.trim
    (Automaton.make ~alpha:b.alpha ~n ~start:(code b.start 0) ~delta
       ~acc:(Acceptance.Inf !full))

let g_delta_witnesses a k =
  let b = Omega.Convert.to_buchi a in
  let acc_set =
    match b.Automaton.acc with
    | Acceptance.Inf s -> s
    | Acceptance.True -> Iset.of_list (List.init b.Automaton.n Fun.id)
    | Acceptance.False -> Iset.empty
    | Acceptance.Fin _ | Acceptance.And _ | Acceptance.Or _ ->
        invalid_arg "Topology.g_delta_witnesses: not a Buechi automaton"
  in
  List.init k (fun j -> nth_open b acc_set (j + 1))

let f_sigma_witnesses a k =
  List.map Automaton.complement
    (g_delta_witnesses (Automaton.complement a) k)

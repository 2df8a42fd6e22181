exception Not_in_class of string

let require cond cls =
  if not cond then raise (Not_in_class cls)

(* The safety closure has the safety shape (its dead states are
   absorbing) and equals the language when the language is safety. *)
let to_safety a =
  require (Classify.is_safety a) "safety";
  Automaton.trim (Lang.safety_closure a)

let to_guarantee a =
  require (Classify.is_guarantee a) "guarantee";
  Automaton.trim (Automaton.complement (Lang.safety_closure (Automaton.complement a)))

(* ------------------------------------------------------------------ *)
(* Recurrence: to deterministic Buechi                                  *)
(* ------------------------------------------------------------------ *)

(* Step 1 (the paper's saturation, per CNF clause): a clause
   (Inf X \/ Fin Y1 \/ ...) is replaced by Inf (X union A) where A is
   the set of states of "persistent cycles" for that clause: accessible
   good cycles C (accepted by the whole condition) that avoid X and so
   satisfy the clause through its Fin part.  Preserves the language when
   it is a recurrence property (the paper's pumping argument). *)
let saturate_clauses ?budget ?(telemetry = Telemetry.disabled) (a : Automaton.t) =
  Telemetry.span telemetry "convert.saturate" @@ fun () ->
  let clauses = Acceptance.cnf a.acc in
  let good_cycles = Cycles.accepting_family ?budget ~telemetry a in
  List.map
    (fun (x, _fins) ->
      let a_c =
        List.fold_left
          (fun acc c -> if Iset.disjoint c x then Iset.union acc c else acc)
          Iset.empty good_cycles
      in
      Iset.union x a_c)
    clauses

(* Step 2: generalized Buechi /\_j Inf S_j to a single Buechi via the
   usual waiting-index product (the paper's minex-style closure
   argument). *)
let degeneralize ?(budget = Budget.unlimited) (a : Automaton.t) sets =
  Budget.ticks budget (a.n * max 1 (List.length sets));
  match sets with
  | [] -> Automaton.make ~alpha:a.alpha ~n:a.n ~start:a.start ~delta:a.delta ~acc:Acceptance.True
  | [ s ] ->
      Automaton.make ~alpha:a.alpha ~n:a.n ~start:a.start ~delta:a.delta
        ~acc:(Acceptance.simplify (Acceptance.Inf s))
  | _ ->
      let sets = Array.of_list sets in
      let k = Array.length sets in
      let m = Finitary.Alphabet.size a.alpha in
      (* state (q, j, flag): waiting for a visit to sets.(j); flag marks
         that the previous step completed a full round *)
      let code q j flag = (((q * k) + j) * 2) + if flag then 1 else 0 in
      let n = a.n * k * 2 in
      let delta = Array.make n [||] in
      let accepting = ref Iset.empty in
      for q = 0 to a.n - 1 do
        for j = 0 to k - 1 do
          let row =
            Array.init m (fun l ->
                let q' = a.delta.(q).(l) in
                if Iset.mem q' sets.(j) then
                  if j = k - 1 then code q' 0 true else code q' (j + 1) false
                else code q' j false)
          in
          delta.(code q j false) <- row;
          delta.(code q j true) <- row
        done
      done;
      for q = 0 to a.n - 1 do
        for j = 0 to k - 1 do
          accepting := Iset.add (code q j true) !accepting
        done
      done;
      Automaton.make ~alpha:a.alpha ~n ~start:(code a.start 0 false) ~delta
        ~acc:(Acceptance.Inf !accepting)

let to_buchi ?budget ?(telemetry = Telemetry.disabled) a =
  require (Classify.is_recurrence a) "recurrence";
  let a = Automaton.trim a in
  let sets = saturate_clauses ?budget ~telemetry a in
  Telemetry.span telemetry "convert.degeneralize" @@ fun () ->
  Automaton.trim (degeneralize ?budget a sets)

let to_cobuchi ?budget ?telemetry a =
  require (Classify.is_persistence a) "persistence";
  Automaton.trim
    (Automaton.complement (to_buchi ?budget ?telemetry (Automaton.complement a)))

(* ------------------------------------------------------------------ *)
(* Simple reactivity: the anticipation construction                     *)
(* ------------------------------------------------------------------ *)

let to_simple_reactivity ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) (a : Automaton.t) =
  Telemetry.span telemetry "convert.anticipate" @@ fun () ->
  let a = Automaton.trim a in
  require (Classify.reactivity_rank ~budget ~telemetry a <= 1) "simple reactivity";
  let groups = Cycles.enumerate ~budget ~telemetry a in
  let all_cycles = List.concat groups in
  let accepting = List.filter_map (fun (c, f) -> if f then Some c else None) all_cycles in
  let superset_good j =
    List.for_all
      (fun group ->
        List.for_all
          (fun (x, fx) -> (not (Iset.subset j x)) || fx)
          group)
      groups
  in
  let subset_good j =
    List.for_all
      (fun group ->
        List.for_all
          (fun (x, fx) -> (not (Iset.subset x j)) || fx)
          group)
      groups
  in
  require
    (List.for_all (fun j -> superset_good j || subset_good j) accepting)
    "simple reactivity";
  (* minimal superset-closed witnesses, maximal subset-closed ones *)
  let a_sets =
    let cand = List.filter superset_good accepting in
    List.filter
      (fun j -> not (List.exists (fun j' -> Iset.cardinal j' < Iset.cardinal j && Iset.subset j' j) cand))
      cand
    |> List.sort_uniq Iset.compare
  in
  let b_sets =
    let cand = List.filter subset_good accepting in
    List.filter
      (fun j -> not (List.exists (fun j' -> Iset.cardinal j' > Iset.cardinal j && Iset.subset j j') cand))
      cand
    |> List.sort_uniq Iset.compare
  in
  let a_arr = Array.of_list (List.map (fun s -> Array.of_list (Iset.elements s)) a_sets) in
  let b_arr = Array.of_list b_sets in
  let m = Array.length a_arr in
  let nb = Array.length b_arr in
  let k = Finitary.Alphabet.size a.alpha in
  (* product state: (q, anticipated index per A_i, f_R, j, f_P) *)
  let index = Hashtbl.create 64 in
  let rows = ref [] in
  let count = ref 0 in
  let intern key =
    match Hashtbl.find_opt index key with
    | Some i -> (i, true)
    | None ->
        let i = !count in
        incr count;
        Hashtbl.add index key i;
        (i, false)
  in
  let queue = Queue.create () in
  let init = (a.start, Array.make m 0, false, 0, false) in
  let i0, _ = intern init in
  Queue.add (i0, init) queue;
  let r_states = ref Iset.empty and p_states = ref Iset.empty in
  while not (Queue.is_empty queue) do
    Budget.tick budget;
    let i, ((q, ant, _, j, _) as key) = Queue.pop queue in
    ignore key;
    let row =
      Array.init k (fun l ->
          let q' = a.delta.(q).(l) in
          let matched = ref false in
          let ant' =
            Array.init m (fun x ->
                let states = a_arr.(x) in
                if states.(ant.(x)) = q' then begin
                  matched := true;
                  (ant.(x) + 1) mod Array.length states
                end
                else ant.(x))
          in
          let f_r = !matched in
          let in_bj =
            nb > 0 && Iset.mem q' b_arr.(j)
          in
          let j' = if nb = 0 then 0 else if in_bj then j else (j + 1) mod nb in
          let f_p = in_bj in
          let key' = (q', ant', f_r, j', f_p) in
          let i', existed = intern key' in
          if not existed then Queue.add (i', key') queue;
          if f_r then r_states := Iset.add i' !r_states;
          if f_p then p_states := Iset.add i' !p_states;
          i')
    in
    rows := (i, row) :: !rows
  done;
  let n' = !count in
  let delta = Array.make n' (Array.make 0 0) in
  List.iter (fun (i, row) -> delta.(i) <- row) !rows;
  let acc =
    Acceptance.simplify
      (Acceptance.streett_pair ~n:n' (!r_states, !p_states))
  in
  Automaton.trim
    (Automaton.make ~alpha:a.alpha ~n:n' ~start:i0 ~delta ~acc)

let to_shape ?budget ?telemetry kappa a =
  match kappa with
  | Kappa.Safety -> to_safety a
  | Kappa.Guarantee -> to_guarantee a
  | Kappa.Recurrence -> to_buchi ?budget ?telemetry a
  | Kappa.Persistence -> to_cobuchi ?budget ?telemetry a
  | Kappa.Obligation _ | Kappa.Reactivity _ ->
      to_simple_reactivity ?budget ?telemetry a

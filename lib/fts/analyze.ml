type code = M301 | M302 | M303 | M304 | M310 | M311 | H312

type severity = Error | Warning | Hint

let all_codes = [ M301; M302; M303; M304; M310; M311; H312 ]

let code_name = function
  | M301 -> "M301"
  | M302 -> "M302"
  | M303 -> "M303"
  | M304 -> "M304"
  | M310 -> "M310"
  | M311 -> "M311"
  | H312 -> "H312"

let severity_of = function
  | M304 -> Error
  | M301 | M302 | M303 | M310 | M311 -> Warning
  | H312 -> Hint

type status =
  | Checked
  | Not_checked of Budget.exhaustion
  | Skipped of string

type finding = {
  code : code;
  requirement : string option;
  locus : string list;
  message : string;
}

type report = {
  findings : finding list;
  statuses : (code * status) list;
  n_states : int;
  n_transitions : int;
}

let degraded r =
  List.exists (function _, Not_checked _ -> true | _ -> false) r.statuses

let state_str sys st = Fmt.str "%a" (System.pp_state sys) st

let fairness_str = function
  | System.Weak tn -> "weak " ^ tn
  | System.Strong tn -> "strong " ^ tn

(* Comma-join with a "+ n more" tail so messages stay one line however
   many states are involved. *)
let ellipsize ?(keep = 3) items =
  let n = List.length items in
  if n <= keep then String.concat ", " items
  else
    String.concat ", " (List.filteri (fun i _ -> i < keep) items)
    ^ Printf.sprintf " and %d more" (n - keep)

(* ---- structural checks ---------------------------------------- *)

let check_m301 ~budget sys emit =
  let states = System.internal_states sys in
  List.iteri
    (fun i (v : System.var) ->
      Budget.ticks budget (Array.length states);
      let seen = Array.make (v.hi - v.lo + 1) false in
      Array.iter (fun st -> seen.(st.(i) - v.lo) <- true) states;
      let missing = ref [] in
      for x = v.hi downto v.lo do
        if not seen.(x - v.lo) then missing := x :: !missing
      done;
      if !missing <> [] then
        emit
          {
            code = M301;
            requirement = None;
            locus = [ v.name ];
            message =
              Fmt.str
                "variable %s never takes value%s %s of its declared range \
                 %d..%d in any reachable state"
                v.name
                (if List.length !missing > 1 then "s" else "")
                (ellipsize (List.map string_of_int !missing))
                v.lo v.hi;
          })
    (System.vars sys)

let check_m302 ~budget sys emit =
  let states = System.internal_states sys in
  let edges = System.internal_edges sys in
  let tnames = System.internal_transition_names sys in
  Budget.ticks budget (List.length edges);
  let taken = Hashtbl.create 16 in
  List.iter
    (fun (_, t, _) -> if t > 0 then Hashtbl.replace taken tnames.(t) ())
    edges;
  List.iter
    (fun tn ->
      if not (Hashtbl.mem taken tn) then begin
        Budget.ticks budget (Array.length states);
        let enabled =
          Array.to_list states
          |> List.filter (fun st -> System.internal_guard sys tn st)
        in
        let message =
          match enabled with
          | [] ->
              Fmt.str
                "transition %s is dead: its guard holds at no reachable state"
                tn
          | _ ->
              Fmt.str
                "transition %s is never taken: enabled at %d reachable \
                 state%s (%s) but its action never yields a successor \
                 (enabledness/taken mismatch)"
                tn (List.length enabled)
                (if List.length enabled > 1 then "s" else "")
                (ellipsize (List.map (state_str sys) enabled))
        in
        emit { code = M302; requirement = None; locus = [ tn ]; message }
      end)
    (System.transitions sys)

let check_m303 ~budget sys emit =
  let states = System.internal_states sys in
  let n = Array.length states in
  Budget.ticks budget n;
  let live = Array.make n false in
  List.iter
    (fun (src, t, _) -> if t > 0 then live.(src) <- true)
    (System.internal_edges sys);
  let sinks = ref [] in
  for sid = n - 1 downto 0 do
    if not live.(sid) then sinks := states.(sid) :: !sinks
  done;
  match !sinks with
  | [] -> ()
  | sinks ->
      emit
        {
          code = M303;
          requirement = None;
          locus = List.map (state_str sys) sinks;
          message =
            Fmt.str
              "%d reachable state%s ha%s no enabled transition — the run can \
               only idle forever there: %s (deliberate for terminating \
               programs, a deadlock for reactive ones)"
              (List.length sinks)
              (if List.length sinks > 1 then "s" else "")
              (if List.length sinks > 1 then "ve" else "s")
              (ellipsize (List.map (state_str sys) sinks));
        }

let check_m304 ~budget ~telemetry sys emit =
  if Check.has_fair_computation ~budget ~telemetry sys then ()
  else begin
    let culprits =
      List.filter
        (fun f ->
          not (Check.has_fair_computation ~budget ~telemetry ~fairness:[ f ] sys))
        (System.fairness sys)
    in
    let states = System.internal_states sys in
    let enabled_states tn =
      Array.to_list states
      |> List.filter (fun st -> System.internal_guard sys tn st)
      |> List.map (state_str sys)
    in
    let tn_of = function System.Weak tn | System.Strong tn -> tn in
    let locus, detail =
      match culprits with
      | [] ->
          (* only the conjunction of requirements is unsatisfiable *)
          ( List.map fairness_str (System.fairness sys),
            "no single requirement is at fault, but their conjunction rules \
             out every computation" )
      | _ ->
          ( List.concat_map
              (fun f -> fairness_str f :: enabled_states (tn_of f))
              culprits,
            String.concat "; "
              (List.map
                 (fun f ->
                   let tn = tn_of f in
                   Fmt.str
                     "%s fairness on %s cannot be met: %s is enabled at %s \
                      but is never taken"
                     (match f with System.Weak _ -> "weak" | _ -> "strong")
                     tn tn
                     (match enabled_states tn with
                     | [] -> "no reachable state"
                     | sts -> ellipsize sts))
                 culprits) )
    in
    emit
      {
        code = M304;
        requirement = None;
        locus;
        message =
          "the fair-computation set is empty — every specification holds \
           vacuously on this model: " ^ detail;
      }
  end

(* ---- spec-vs-model checks -------------------------------------- *)

(* Distinct sorted atoms of a spec formula, validated against the model
   (unknown variables/transitions raise [Invalid_argument] here, with
   the requirement name attached, instead of deep inside a fixpoint). *)
let spec_atoms sys (name, f) =
  let atoms = List.sort_uniq compare (Logic.Formula.atoms f) in
  let probe =
    match System.internal_states sys with
    | [||] -> None
    | sts -> Some sts.(0)
  in
  List.iter
    (fun atom ->
      let check_transition tn =
        if
          tn <> System.idle_name
          && not (Array.exists (( = ) tn) (System.internal_transition_names sys))
        then
          invalid_arg
            (Fmt.str "analyze: requirement %s mentions unknown transition %s"
               name atom)
      in
      if String.length atom > 6 && String.sub atom 0 6 = "taken_" then
        check_transition (String.sub atom 6 (String.length atom - 6))
      else
        match probe with
        | None -> ()
        | Some st -> (
            try ignore (System.atom_holds sys st atom)
            with Invalid_argument _ | Failure _ ->
              invalid_arg
                (Fmt.str "analyze: requirement %s mentions unknown atom %s"
                   name atom)))
    atoms;
  atoms

(* [taken_tau] is edge-dependent; every other atom is a function of the
   state.  [None] when the atom varies, [Some b] when constant. *)
let constant_value ~budget sys atom =
  let states = System.internal_states sys in
  Budget.ticks budget (Array.length states);
  if String.length atom > 6 && String.sub atom 0 6 = "taken_" then begin
    let tn = String.sub atom 6 (String.length atom - 6) in
    let ever_taken =
      List.exists
        (fun (_, t, _) ->
          t > 0 && (System.internal_transition_names sys).(t) = tn)
        (System.internal_edges sys)
    in
    (* false at every initial position; varies iff the edge exists *)
    if ever_taken then None else Some false
  end
  else
    match states with
    | [||] -> None
    | _ ->
        let v0 = System.atom_holds sys states.(0) atom in
        if Array.for_all (fun st -> System.atom_holds sys st atom = v0) states
        then Some v0
        else None

let check_m311 ~budget sys specs emit =
  let atom_reqs = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun a ->
          if not (Hashtbl.mem atom_reqs a) then order := a :: !order;
          Hashtbl.replace atom_reqs a
            (name
            :: (Hashtbl.find_opt atom_reqs a |> Option.value ~default:[])))
        (List.sort_uniq compare (Logic.Formula.atoms f)))
    specs;
  List.iter
    (fun atom ->
      match constant_value ~budget sys atom with
      | None -> ()
      | Some v ->
          let reqs = List.rev (Hashtbl.find atom_reqs atom) in
          emit
            {
              code = M311;
              requirement =
                (match reqs with [ r ] -> Some r | _ -> None);
              locus = [ atom ];
              message =
                Fmt.str
                  "atom %s is constantly %b on every reachable state of this \
                   model: requirement%s %s cannot distinguish any two \
                   behaviours through it"
                  atom v
                  (if List.length reqs > 1 then "s" else "")
                  (String.concat ", " reqs);
            })
    (List.rev !order)

(* The closure automaton is shared between M310 and H312 and between
   requirements over the same atom set. *)
let closure_cache ~budget ~telemetry sys =
  let cache = Hashtbl.create 4 in
  fun atoms ->
    match Hashtbl.find_opt cache atoms with
    | Some a -> a
    | None ->
        let a = Check.closure_automaton ~budget ~telemetry sys ~atoms in
        Hashtbl.add cache atoms a;
        a

(* Pre-charge inclusion/classification work by product size so that
   trip points do not depend on how far the inclusion search explores
   and are identical at every job count (the [Lang] layer itself never
   ticks this budget). *)
let precharge ~budget (a : Omega.Automaton.t) (b : Omega.Automaton.t) =
  Budget.ticks budget (a.Omega.Automaton.n * b.Omega.Automaton.n)

let max_spec_atoms = 14

let check_m310 ~budget ~telemetry closure_of specs emit =
  List.iter
    (fun (name, f) ->
      let atoms = List.sort_uniq compare (Logic.Formula.atoms f) in
      if atoms <> [] && List.length atoms <= max_spec_atoms then begin
        let alpha = Finitary.Alphabet.of_props atoms in
        let candidates =
          List.filter_map
            (fun sub ->
              match (sub : Logic.Formula.t) with
              | Alw (Imp (ant, cons))
                when cons <> Logic.Formula.False
                     && ant <> Logic.Formula.True
                     && ant <> Logic.Formula.False
                     && Logic.Formula.polarity_of_occurrence f ~sub
                        = Some true ->
                  Some (sub, ant, cons)
              | _ -> None)
            (Logic.Formula.subformulas f)
        in
        List.iter
          (fun (sub, ant, _cons) ->
            Budget.check budget;
            let weakened : Logic.Formula.t = Alw (Imp (ant, False)) in
            let f' = Logic.Formula.replace f ~sub ~by:weakened in
            match Omega.Of_formula.translate ~budget ~telemetry alpha f' with
            | None -> () (* outside the canonical fragment: out of scope *)
            | Some aut' ->
                let closure = closure_of atoms in
                precharge ~budget closure aut';
                if Omega.Lang.included closure aut' then
                  emit
                    {
                      code = M310;
                      requirement = Some name;
                      locus = [ Logic.Formula.to_string sub ];
                      message =
                        Fmt.str
                          "requirement %s holds vacuously on this model: \
                           replacing the consequent of %s with false still \
                           holds on every computation — the antecedent %s is \
                           never satisfied where it matters (antecedent \
                           failure)"
                          name
                          (Logic.Formula.to_string sub)
                          (Logic.Formula.to_string ant);
                    })
          candidates
      end)
    specs

let check_h312 ~budget ~telemetry closure_of specs emit =
  List.iter
    (fun (name, f) ->
      let atoms = List.sort_uniq compare (Logic.Formula.atoms f) in
      match (Logic.Shape.infer f).Logic.Shape.interval.Kappa.upper with
      | None -> ()
      | Some bound when atoms <> [] && List.length atoms <= max_spec_atoms
        -> (
          Budget.check budget;
          let alpha = Finitary.Alphabet.of_props atoms in
          match Omega.Of_formula.translate ~budget ~telemetry alpha f with
          | None -> ()
          | Some aut ->
              let closure = closure_of atoms in
              precharge ~budget closure aut;
              let restricted = Omega.Automaton.inter closure aut in
              let b =
                Omega.Classify.classify_budgeted ~budget ~telemetry restricted
              in
              (match b.Omega.Classify.exhaustion with
              | Some e -> raise (Budget.Tripped e)
              | None -> ());
              (match b.Omega.Classify.verdict with
              | `Interval _ -> ()
              | `Exact k ->
                  if Kappa.leq k bound && not (Kappa.equal k bound) then
                    emit
                      {
                        code = H312;
                        requirement = Some name;
                        locus = [ Kappa.name k; Kappa.name bound ];
                        message =
                          Fmt.str
                            "restricted to this model's computations, \
                             requirement %s denotes a %s property though its \
                             structural bound is %s: the model's structure, \
                             not the formula, carries the verdict — it may \
                             not survive model changes"
                            name (Kappa.name k) (Kappa.name bound);
                      }))
      | Some _ -> ())
    specs

(* ---- driver ----------------------------------------------------- *)

let analyze ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled)
    ?(specs = []) sys =
  Telemetry.span telemetry "fts.analyze" @@ fun () ->
  (* validate spec atoms before any budgeted work: a bad spec is a hard
     input error, not a finding *)
  List.iter (fun spec -> ignore (spec_atoms sys spec)) specs;
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let statuses = ref [] in
  let run code check =
    let status =
      match
        Budget.check budget;
        check ()
      with
      | () -> Checked
      | exception Budget.Tripped e -> Not_checked e
    in
    statuses := (code, status) :: !statuses
  in
  let skip code reason = statuses := (code, Skipped reason) :: !statuses in
  let closure_of = closure_cache ~budget ~telemetry sys in
  run M301 (fun () -> check_m301 ~budget sys emit);
  run M302 (fun () -> check_m302 ~budget sys emit);
  run M303 (fun () -> check_m303 ~budget sys emit);
  if System.fairness sys = [] then skip M304 "no fairness requirements"
  else run M304 (fun () -> check_m304 ~budget ~telemetry sys emit);
  if specs = [] then begin
    skip M310 "no specification given";
    skip M311 "no specification given";
    skip H312 "no specification given"
  end
  else begin
    run M310 (fun () ->
        check_m310 ~budget ~telemetry closure_of specs emit);
    run M311 (fun () -> check_m311 ~budget sys specs emit);
    run H312 (fun () ->
        check_h312 ~budget ~telemetry closure_of specs emit)
  end;
  {
    findings = List.rev !findings;
    statuses = List.rev !statuses;
    n_states = Array.length (System.internal_states sys);
    n_transitions = List.length (System.transitions sys);
  }

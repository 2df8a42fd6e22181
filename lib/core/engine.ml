type verdict =
  | Exact of Kappa.t
  | Interval of { lower : Kappa.t option; upper : Kappa.t option }

type report = {
  verdict : verdict;
  syntactic : Kappa.t option;
  memberships : (Kappa.t * bool option) list;
  is_liveness : bool option;
  is_uniform_liveness : bool option;
  counter_free : bool option;
  n_states : int option;
  exhausted : Budget.exhaustion option;
  telemetry : Telemetry.report option;
}

type error =
  | Parse_error of string
  | Invalid_input of string
  | Unsupported of string
  | Budget_exceeded of Budget.exhaustion
  | Internal of string

(* ------------------------------------------------------------------ *)
(* The exception boundary                                              *)
(* ------------------------------------------------------------------ *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let protect ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled) f =
  let structural what size =
    Error (Budget_exceeded (Budget.structural budget ~what ~size))
  in
  (* install the handle as the domain's ambient for the duration of the
     entry point, so the leaf kernels (Graph_kernel, the successors
     memo, the Lang caches) report into the same collector *)
  try Ok (Telemetry.with_ambient telemetry f) with
  | Budget.Tripped e -> Error (Budget_exceeded e)
  | Omega.Counter_free.Monoid_too_large n ->
      structural "syntactic monoid too large" n
  | Fts.System.State_space_too_large n ->
      structural "reachable state space too large" n
  | Logic.Tableau.Unsupported m -> Error (Unsupported m)
  | Invalid_argument m when starts_with ~prefix:"Parser:" m ->
      Error (Parse_error m)
  | Invalid_argument m | Failure m | Sys_error m -> Error (Invalid_input m)
  | Stack_overflow -> Error (Internal "stack overflow")
  | Not_found -> Error (Internal "uncaught Not_found")
  | e -> Error (Internal (Printexc.to_string e))

let exit_code = function
  | Parse_error _ | Invalid_input _ | Unsupported _ -> 1
  | Budget_exceeded _ -> 2
  | Internal _ -> 3

let pp_error ppf = function
  | Parse_error m -> Fmt.pf ppf "%s" m
  | Invalid_input m -> Fmt.pf ppf "%s" m
  | Unsupported m -> Fmt.pf ppf "unsupported: %s" m
  | Budget_exceeded e -> Fmt.pf ppf "budget exceeded: %a" Budget.pp_exhaustion e
  | Internal m -> Fmt.pf ppf "internal error: %s" m

(* ------------------------------------------------------------------ *)
(* Inclusion-engine selection                                          *)
(* ------------------------------------------------------------------ *)

type inclusion_engine = Omega.Lang.engine

(* The [?engine] parameters below install the engine for the duration
   of the entry point, so every inclusion query it spawns — including
   on pool worker domains, which [Pool.map] hands the engine to — uses
   the request's engine. *)
let with_scoped ?engine f =
  match engine with None -> f () | Some e -> Omega.Lang.with_engine e f

let inclusion_engine_of_string = function
  | "antichain" -> Ok (`Antichain : inclusion_engine)
  | "explicit" -> Ok (`Explicit : inclusion_engine)
  | s ->
      Error
        (Invalid_input
           (Printf.sprintf
              "unknown inclusion engine %S (expected 'antichain' or \
               'explicit')"
              s))

(* ------------------------------------------------------------------ *)
(* Parsing and alphabets                                               *)
(* ------------------------------------------------------------------ *)

let parse s = protect (fun () -> Logic.Parser.parse s)

let alphabet ?props ?chars formulas =
  protect @@ fun () ->
  match (props, chars) with
  | Some p, None -> Finitary.Alphabet.of_props (String.split_on_char ',' p)
  | None, Some c -> Finitary.Alphabet.of_chars c
  | Some _, Some _ -> invalid_arg "give either --props or --chars, not both"
  | None, None ->
      let atoms =
        List.sort_uniq compare (List.concat_map Logic.Formula.atoms formulas)
      in
      if atoms = [] then invalid_arg "empty alphabet: give --props or --chars";
      Finitary.Alphabet.of_props atoms

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* Report on a translated automaton.  [classify_forest] already
   degrades the verdict columns; the three SL/expressibility bits are
   guarded the same way here so a trip mid-bit yields [None] for it and
   everything after, never an exception.  The columns, the liveness bit
   and the counter-freedom bit read one forest. *)
let report_of ~budget ~telemetry ~syntactic (a : Omega.Automaton.t) =
  let forest = Omega.Classify.forest ~budget ~telemetry a in
  let b = Omega.Classify.classify_forest forest in
  let exhausted = ref b.Omega.Classify.exhaustion in
  let record e = if !exhausted = None then exhausted := Some e in
  let opt f =
    (* a tripped budget is sticky: once fuel or deadline ran out, skip
       the remaining analyses (structural limits recorded in
       [b.exhaustion] do not poison the budget, so those still run) *)
    if Budget.exhausted budget <> None then None
    else
      try Some (f ()) with
      | Budget.Tripped e ->
          record e;
          None
      | Omega.Counter_free.Monoid_too_large n ->
          record (Budget.structural budget ~what:"syntactic monoid too large" ~size:n);
          None
  in
  let span name f = Telemetry.span telemetry name f in
  let is_liveness =
    opt (fun () ->
        span "engine.liveness" (fun () -> Omega.Classify.liveness forest))
  in
  let is_uniform_liveness =
    (* uniform liveness implies liveness, so a property that is not
       live needs no search *)
    match is_liveness with
    | Some false -> Some false
    | _ ->
        opt (fun () ->
            span "engine.uniform_liveness" (fun () ->
                Omega.Lang.is_uniform_liveness ~budget a))
  in
  let counter_free =
    opt (fun () ->
        Omega.Counter_free.of_forest ~budget ~telemetry forest)
  in
  let verdict =
    match b.Omega.Classify.verdict with
    | `Exact k -> Exact k
    | `Interval { Omega.Classify.at_least; at_most } ->
        (* the syntactic class, when known, is always a sound upper
           bound for the semantic class *)
        let upper = match at_most with Some _ -> at_most | None -> syntactic in
        Interval { lower = at_least; upper }
  in
  {
    verdict;
    syntactic;
    memberships = b.Omega.Classify.row;
    is_liveness;
    is_uniform_liveness;
    counter_free;
    n_states = Some a.Omega.Automaton.n;
    exhausted = !exhausted;
    telemetry =
      (if Telemetry.enabled telemetry then Some (Telemetry.report telemetry)
       else None);
  }

let classify_automaton ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?engine ?formula a =
  protect ~budget ~telemetry @@ fun () ->
  with_scoped ?engine @@ fun () ->
  let syntactic =
    Option.bind formula (fun f -> Logic.Shape.upper (Logic.Shape.infer f))
  in
  report_of ~budget ~telemetry ~syntactic a

let outside_fragment ~telemetry ~syntactic ~exhausted =
  {
    verdict = Interval { lower = None; upper = syntactic };
    syntactic;
    memberships = [];
    is_liveness = None;
    is_uniform_liveness = None;
    counter_free = None;
    n_states = None;
    exhausted;
    telemetry =
      (if Telemetry.enabled telemetry then Some (Telemetry.report telemetry)
       else None);
  }

let classify_formula ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?engine alpha f =
  protect ~budget ~telemetry @@ fun () ->
  with_scoped ?engine @@ fun () ->
  let syntactic = Logic.Shape.upper (Logic.Shape.infer f) in
  let translation =
    (* degrade, don't fail, when the budget trips inside translation:
       the syntactic class still bounds the verdict from above *)
    try `Done (Omega.Of_formula.translate ~budget ~telemetry alpha f)
    with Budget.Tripped e -> `Tripped e
  in
  match translation with
  | `Tripped e -> outside_fragment ~telemetry ~syntactic ~exhausted:(Some e)
  | `Done None -> outside_fragment ~telemetry ~syntactic ~exhausted:None
  | `Done (Some a) -> report_of ~budget ~telemetry ~syntactic a

let classify ?budget ?telemetry ?engine ?props ?chars s =
  Result.bind (parse s) @@ fun f ->
  Result.bind (alphabet ?props ?chars [ f ]) @@ fun alpha ->
  classify_formula ?budget ?telemetry ?engine alpha f

(* One result per input, in input order.  Without a pool this is a
   plain [List.map] over {!classify} with the shared budget (so inputs
   degrade cumulatively, exactly as a shell loop over [hpt classify]
   would).  With a pool, each input runs as one task on a task-replica
   budget ([Budget.split]) and its own telemetry collector; the task
   body is Result-typed — an error on one input never cancels the
   others — and the collectors merge into [telemetry] in input order,
   so the result list is identical at every job count. *)
let classify_batch ?(budget = Budget.unlimited)
    ?(telemetry = Telemetry.disabled) ?pool ?engine ?props ?chars inputs =
  match pool with
  | None ->
      List.map
        (fun s -> classify ~budget ~telemetry ?engine ?props ?chars s)
        inputs
  | Some p ->
      Pool.map ~budget ~telemetry p
        (fun ctx s ->
          classify ~budget:ctx.Pool.budget ~telemetry:ctx.Pool.telemetry
            ?engine ?props ?chars s)
        inputs

(* Classify [op(regex)] for one of the paper's four finitary-to-
   infinitary operators: the [hpt build] path.  The alphabet must be
   given explicitly ([--props] or [--chars]); regex letters cannot be
   inferred. *)
let classify_regex ?budget ?(telemetry = Telemetry.disabled) ?engine ?props
    ?chars ~op re =
  let operator =
    match String.lowercase_ascii op with
    | "a" -> Ok Omega.Build.A
    | "e" -> Ok Omega.Build.E
    | "r" -> Ok Omega.Build.R
    | "p" -> Ok Omega.Build.P
    | _ ->
        Error
          (Invalid_input
             (Printf.sprintf "unknown operator %S: expected A, E, R or P" op))
  in
  Result.bind operator @@ fun operator ->
  let alpha =
    protect @@ fun () ->
    match (props, chars) with
    | Some p, None -> Finitary.Alphabet.of_props (String.split_on_char ',' p)
    | None, Some c -> Finitary.Alphabet.of_chars c
    | Some _, Some _ -> invalid_arg "give either --props or --chars, not both"
    | None, None ->
        invalid_arg "regex alphabet cannot be inferred: give --props or --chars"
  in
  Result.bind alpha @@ fun alpha ->
  let budget = Option.value budget ~default:Budget.unlimited in
  protect ~budget ~telemetry @@ fun () ->
  with_scoped ?engine @@ fun () ->
  let a =
    Telemetry.span telemetry "engine.build" @@ fun () ->
    let e = Finitary.Regex.parse alpha re in
    (* a power unrolls: charge the NFA's size before building it *)
    Budget.ticks budget (Finitary.Regex.size e);
    Budget.check budget;
    Omega.Build.of_op operator (Finitary.Regex.to_dfa alpha e)
  in
  report_of ~budget ~telemetry ~syntactic:None a

(* ------------------------------------------------------------------ *)
(* Views, equivalence, witnesses, lint                                 *)
(* ------------------------------------------------------------------ *)

type views = {
  canon : Logic.Rewrite.canon;
  automaton : Omega.Automaton.t;
  safety_part : Omega.Automaton.t;
  liveness_part : Omega.Automaton.t;
  model : Finitary.Word.lasso option;
}

let views ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled)
    alpha f =
  protect ~budget ~telemetry @@ fun () ->
  match Logic.Rewrite.to_canon f with
  | None -> None
  | Some canon ->
      let automaton = Omega.Of_formula.of_canon ~budget ~telemetry alpha canon in
      let safety_part, liveness_part =
        (* no budget: the decomposition stays tick-free here, so trip
           positions through [views] are unchanged *)
        Omega.Lang.safety_liveness_decomposition automaton
      in
      Some
        {
          canon;
          automaton;
          safety_part;
          liveness_part;
          model = Omega.Lang.witness automaton;
        }

type side = First_only | Second_only

(* One tableau for [!(f1 <-> f2)]: a model of it satisfies exactly one
   of the two formulas, and the semantics says which. *)
let equiv ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled)
    alpha f1 f2 =
  protect ~budget ~telemetry @@ fun () ->
  let open Logic.Formula in
  match Logic.Tableau.witness ~budget ~telemetry alpha (Not (Iff (f1, f2))) with
  | None -> `Equivalent
  | Some w ->
      `Distinct
        ( w,
          if Logic.Semantics.holds alpha f1 w then First_only
          else Second_only )

let witness ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled)
    alpha f =
  protect ~budget ~telemetry @@ fun () ->
  Logic.Tableau.witness ~budget ~telemetry alpha f

let lint ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled) ?mode
    ?engine specs =
  protect ~budget ~telemetry @@ fun () ->
  with_scoped ?engine @@ fun () ->
  Lint.lint_strings ~budget ?mode specs

let analyze ?(budget = Budget.unlimited) ?(telemetry = Telemetry.disabled)
    ?mode ?pool:_ ?engine ~model specs =
  protect ~budget ~telemetry @@ fun () ->
  with_scoped ?engine @@ fun () ->
  let lint_verdict =
    (* the formula-only pass degrades rather than aborts: if the budget
       trips inside it, fall back to the syntactic-only pass (which
       never ticks the — now sticky — budget), and let the model
       checks' [Not_checked] statuses report the degradation instead of
       losing the whole report *)
    try Lint.lint_located ~budget ?mode specs
    with Budget.Tripped _ ->
      Lint.lint_located ~mode:Lint.Syntactic_only specs
  in
  let report =
    Fts.Analyze.analyze ~budget ~telemetry
      ~specs:
        (List.map (fun it -> (it.Lint.iname, it.Lint.formula)) lint_verdict.Lint.items)
      model
  in
  Lint.with_model report lint_verdict

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_verdict ppf = function
  | Exact k ->
      Fmt.pf ppf "%s  (Borel %s; topologically %s)" (Kappa.name k)
        (Kappa.borel_name k) (Kappa.topological_name k)
  | Interval { lower; upper } -> (
      match (lower, upper) with
      | None, None -> Fmt.pf ppf "unknown"
      | Some l, None -> Fmt.pf ppf "at least %s" (Kappa.name l)
      | None, Some u -> Fmt.pf ppf "at most %s" (Kappa.name u)
      | Some l, Some u ->
          Fmt.pf ppf "between %s and %s" (Kappa.name l) (Kappa.name u))

let pp_report ppf r =
  let yn = function
    | Some true -> "yes"
    | Some false -> "no"
    | None -> "?"
  in
  Fmt.pf ppf "@[<v>class        : %a@," pp_verdict r.verdict;
  (match r.exhausted with
  | Some e -> Fmt.pf ppf "degraded     : %a@," Budget.pp_exhaustion e
  | None -> ());
  (match r.syntactic with
  | Some k -> Fmt.pf ppf "syntactic    : %s@," (Kappa.name k)
  | None -> ());
  if r.memberships <> [] then
    Fmt.pf ppf "memberships  : %s@,"
      (String.concat ", "
         (List.map
            (fun (k, b) -> Printf.sprintf "%s=%s" (Kappa.name k) (yn b))
            r.memberships));
  if r.is_liveness <> None || r.is_uniform_liveness <> None then
    Fmt.pf ppf "liveness     : %s (uniform: %s)@," (yn r.is_liveness)
      (yn r.is_uniform_liveness);
  if r.counter_free <> None then
    Fmt.pf ppf "counter-free : %s (LTL-expressible)@," (yn r.counter_free);
  match r.n_states with
  | Some n -> Fmt.pf ppf "states       : %d@]" n
  | None -> Fmt.pf ppf "states       : (not translated)@]"

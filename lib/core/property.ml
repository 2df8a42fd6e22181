type report = {
  semantic : Kappa.t;
  syntactic : Kappa.t option;
  memberships : (Kappa.t * bool option) list;
  is_liveness : bool;
  is_uniform_liveness : bool;
  counter_free : bool;
  n_states : int;
}

let analyze ?formula (a : Omega.Automaton.t) =
  {
    semantic = Omega.Classify.classify a;
    syntactic = Option.bind formula Logic.Rewrite.classify;
    memberships = Omega.Classify.memberships a;
    is_liveness = Omega.Lang.is_liveness a;
    is_uniform_liveness = Omega.Lang.is_uniform_liveness a;
    counter_free = Omega.Counter_free.is_counter_free a;
    n_states = a.Omega.Automaton.n;
  }

let analyze_formula alpha f =
  Option.map (fun a -> analyze ~formula:f a) (Omega.Of_formula.translate alpha f)

let analyze_string alpha s = analyze_formula alpha (Logic.Parser.parse s)

let safety_liveness_decomposition a =
  Omega.Lang.safety_liveness_decomposition a

let pp_report ppf r =
  let yn b = if b then "yes" else "no" in
  Fmt.pf ppf "@[<v>class        : %s  (Borel %s; topologically %s)@,"
    (Kappa.name r.semantic)
    (Kappa.borel_name r.semantic)
    (Kappa.topological_name r.semantic);
  (match r.syntactic with
  | Some k -> Fmt.pf ppf "syntactic    : %s@," (Kappa.name k)
  | None -> ());
  Fmt.pf ppf "memberships  : %s@,"
    (String.concat ", "
       (List.map
          (fun (k, b) ->
            Printf.sprintf "%s=%s" (Kappa.name k)
              (match b with Some b -> yn b | None -> "?"))
          r.memberships));
  Fmt.pf ppf "liveness     : %s (uniform: %s)@," (yn r.is_liveness)
    (yn r.is_uniform_liveness);
  Fmt.pf ppf "counter-free : %s (LTL-expressible)@," (yn r.counter_free);
  Fmt.pf ppf "states       : %d@]" r.n_states

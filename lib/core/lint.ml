(* The diagnostics engine.  Every finding is a coded diagnostic; the
   numbering groups by severity: E0xx errors, W1xx warnings, H2xx
   hints.  The syntactic pass (Logic.Shape) always runs; the semantic
   pass (tableau + automaton classification) refines it when the
   alphabet is small enough and the mode allows. *)

type severity = Error | Warning | Hint

type code =
  | E001  (* requirement unsatisfiable *)
  | E002  (* two requirements conflict *)
  | W101  (* requirement valid: constrains nothing *)
  | W102  (* all-safety specification: the underspecification trap *)
  | W103  (* conjunction collapses to safety *)
  | W104  (* semantic refinement skipped *)
  | W105  (* requirement subsumed by another *)
  | H201  (* written in a higher class than it denotes *)
  | H202  (* outside the canonical fragment *)
  | H203  (* constant subformula *)
  | Model of Fts.Analyze.code  (* model-aware finding, M3xx/H312 *)

let severity_of_code = function
  | E001 | E002 -> Error
  | W101 | W102 | W103 | W104 | W105 -> Warning
  | H201 | H202 | H203 -> Hint
  | Model c -> (
      match Fts.Analyze.severity_of c with
      | Fts.Analyze.Error -> Error
      | Fts.Analyze.Warning -> Warning
      | Fts.Analyze.Hint -> Hint)

let code_name = function
  | E001 -> "E001"
  | E002 -> "E002"
  | W101 -> "W101"
  | W102 -> "W102"
  | W103 -> "W103"
  | W104 -> "W104"
  | W105 -> "W105"
  | H201 -> "H201"
  | H202 -> "H202"
  | H203 -> "H203"
  | Model c -> Fts.Analyze.code_name c

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Hint -> "hint"

type origin = { file : string; line : int }

type diagnostic = {
  code : code;
  requirement : string option;
  span : Logic.Parser.span option;
  locus : string list;
  origin : origin option;
  message : string;
}

type item = {
  iname : string;
  formula : Logic.Formula.t;
  source : string option;
  origin : origin option;
  shape : Logic.Shape.t;
  interval : Kappa.interval;
  klass : Kappa.t option;
  satisfiable : bool option;
  valid : bool option;
}

type mode = Syntactic_only | Auto | Semantic

type model_info = {
  model_states : int;
  model_transitions : int;
  model_checks : (Fts.Analyze.code * Fts.Analyze.status) list;
}

type verdict = {
  items : item list;
  diagnostics : diagnostic list;
  conjunction_class : Kappa.t option;
  conjunction_interval : Kappa.interval;
  semantic : bool;
  model : model_info option;
}

let max_semantic_atoms = 14

(* the pairwise O(n^2) tableau checks are only "cheap" for small
   specifications; [Semantic] mode runs them regardless *)
let max_auto_pairwise = 8

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

let strictly_below a b = Kappa.leq a b && not (Kappa.equal a b)

(* best sound upper bound we know for an item's exact class *)
let best_bound it =
  match it.klass with Some k -> Some k | None -> it.interval.Kappa.upper

(* maximal proper subformulas that constant-fold, with their spans;
   only meaningful when the requirement itself is not constant *)
let constant_subterms spanned =
  let rec walk acc (s : Logic.Parser.spanned) =
    match Logic.Shape.constant s.Logic.Parser.f with
    | Some b -> (s.Logic.Parser.span, b) :: acc
    | None -> List.fold_left walk acc s.Logic.Parser.children
  in
  match spanned with
  | None -> []
  | Some s ->
      if Logic.Shape.constant s.Logic.Parser.f <> None then []
      else List.rev (List.fold_left walk [] s.Logic.Parser.children)

let lint_parsed ?budget ?(mode = Auto)
    (specs : (string * Logic.Formula.t * (string * Logic.Parser.spanned) option) list) =
  let atoms =
    List.sort_uniq compare
      (List.concat_map (fun (_, f, _) -> Logic.Formula.atoms f) specs)
  in
  let n_atoms = List.length atoms in
  let want_semantic = mode <> Syntactic_only in
  let semantic = want_semantic && n_atoms <= max_semantic_atoms in
  (* the truth of an atom-free requirement does not depend on the
     alphabet, so a dummy proposition lets the semantic pass run *)
  let alpha =
    if semantic then
      Some (Finitary.Alphabet.of_props (if atoms = [] then [ "p" ] else atoms))
    else None
  in
  let diags = ref [] in
  let diag ?requirement ?span code fmt =
    Printf.ksprintf
      (fun message ->
        diags :=
          { code; requirement; span; locus = []; origin = None; message }
          :: !diags)
      fmt
  in
  if want_semantic && not semantic then
    diag W104
      "specification has %d distinct atoms (more than %d): semantic \
       refinement skipped, syntactic intervals reported"
      n_atoms max_semantic_atoms;
  (* a requirement's tableau automaton and its negation's: the item pass
     reads [satisfiable] and [valid] off them, and the pairwise matrix
     decides every pair on their products *)
  let build_item (iname, formula, src) =
    let shape = Logic.Shape.infer formula in
    let klass =
      match alpha with
      | Some alpha -> Omega.Of_formula.classify ?budget alpha formula
      | None -> None
    in
    let tableaux =
      match alpha with
      | Some alpha ->
          let neg =
            Logic.Tableau.translate ?budget alpha (Logic.Formula.Not formula)
          in
          Some (Logic.Tableau.translate ?budget alpha formula, neg)
      | None -> None
    in
    let satisfiable, valid =
      match tableaux with
      | Some (pos, neg) ->
          ( Some (Logic.Tableau.nonempty pos),
            Some (not (Logic.Tableau.nonempty neg)) )
      | None ->
          (* without the tableau, only the syntactic constant
             certificate decides these: a constant-true formula is
             satisfiable and valid, a constant-false one neither *)
          (shape.Logic.Shape.constant, shape.Logic.Shape.constant)
    in
    let interval =
      (* when the exact class is known it subsumes the syntactic
         interval (refining against it can even be inconsistent:
         for a clopen language the classifier reports safety while
         the syntax may be guarantee-shaped — both memberships
         hold, but the two classes are lattice-incomparable) *)
      match klass with
      | Some k -> Kappa.exactly k
      | None -> shape.Logic.Shape.interval
    in
    ( {
        iname;
        formula;
        source = Option.map fst src;
        origin = None;
        shape;
        interval;
        klass;
        satisfiable;
        valid;
      },
      tableaux )
  in
  (* the two semantic passes open spans on the ambient handle, so the
     tableau spans they cause nest under them *)
  let tl = Telemetry.ambient () in
  let built =
    Telemetry.span tl "lint.items" @@ fun () ->
    List.map build_item specs
  in
  let items = List.map fst built in
  let spanned_of =
    let tbl = List.map (fun (n, _, src) -> (n, Option.map snd src)) specs in
    fun iname -> Option.join (List.assoc_opt iname tbl)
  in
  (* per-requirement diagnostics *)
  List.iter
    (fun it ->
      let whole =
        Option.map (fun s -> s.Logic.Parser.span) (spanned_of it.iname)
      in
      let degenerate =
        it.satisfiable = Some false || it.valid = Some true
      in
      if it.satisfiable = Some false then
        diag ~requirement:it.iname ?span:whole E001
          "requirement %S is unsatisfiable: no implementation can exist"
          it.iname
      else if it.valid = Some true then
        diag ~requirement:it.iname ?span:whole W101
          "requirement %S is valid: it constrains nothing" it.iname;
      if semantic && it.klass = None && not degenerate then
        diag ~requirement:it.iname ?span:whole H202
          "requirement %S is outside the canonical fragment: syntactic \
           bound %s"
          it.iname
          (Kappa.interval_name it.interval);
      (if not degenerate then
         match (it.shape.Logic.Shape.canonical, best_bound it) with
         | Some written, Some actual when strictly_below actual written ->
             diag ~requirement:it.iname ?span:whole H201
               "requirement %S is written as %s but denotes a %s property"
               it.iname (Kappa.name written) (Kappa.name actual)
         | (Some _ | None), (Some _ | None) -> ());
      if not degenerate then
        List.iter
          (fun (span, b) ->
            let slice =
              match it.source with
              | Some src -> Printf.sprintf " %S" (Logic.Parser.text src span)
              | None -> ""
            in
            diag ~requirement:it.iname ~span H203
              "in requirement %S, subformula%s is constantly %b" it.iname
              slice b)
          (constant_subterms (spanned_of it.iname)))
    items;
  (* pairwise subsumption and conflict *)
  (match alpha with
  | Some _
    when (mode = Semantic || List.length items <= max_auto_pairwise)
         && List.length items > 1 ->
      let eligible it =
        it.satisfiable <> Some false && it.valid <> Some true
      in
      (* the conflict/subsumption matrix in its canonical order:
         (a, b) for every b after a *)
      let rec pair_list = function
        | [] -> []
        | a :: rest -> List.map (fun b -> (a, b)) rest @ pair_list rest
      in
      (* per-pair verdict, preserving the within-pair short-circuit
         (conflict beats either implication; a->b beats b->a): a & b is
         unsatisfiable iff A(a) x A(b) is empty, a -> b is valid iff
         A(a) x A(!b) is empty *)
      let judge ((a, ta), (b, tb)) =
        match (ta, tb) with
        | Some (a_pos, a_neg), Some (b_pos, b_neg)
          when eligible a && eligible b ->
            let meets = Logic.Tableau.intersects ?budget in
            if not (meets a_pos b_pos) then `Conflict
            else if not (meets a_pos b_neg) then `Implies_ab
            else if not (meets b_pos a_neg) then `Implies_ba
            else `Nothing
        | (Some _ | None), (Some _ | None) -> `Nothing
      in
      Telemetry.span tl "lint.matrix" @@ fun () ->
      List.iter
        (fun (((a, _), (b, _)) as pair) ->
          match judge pair with
          | `Nothing -> ()
          | `Conflict ->
              diag ~requirement:b.iname E002
                "requirements %S and %S are in conflict: their conjunction \
                 is unsatisfiable"
                a.iname b.iname
          | `Implies_ab ->
              diag ~requirement:b.iname W105
                "requirement %S is implied by %S: redundant" b.iname a.iname
          | `Implies_ba ->
              diag ~requirement:a.iname W105
                "requirement %S is implied by %S: redundant" a.iname b.iname)
        (pair_list built)
  | Some _ | None -> ());
  (* specification-level diagnostics *)
  let all_safety =
    items <> []
    && List.for_all
         (fun it ->
           match best_bound it with
           | Some k -> Kappa.leq k Kappa.Safety
           | None -> false)
         items
  in
  if all_safety then
    diag W102
      "every requirement is a safety property: the specification admits \
       do-nothing implementations (the paper's underspecification trap); \
       consider adding a guarantee, recurrence or reactivity requirement";
  let conj =
    Logic.Formula.conj (List.map (fun (_, f, _) -> f) specs)
  in
  let conj_shape = Logic.Shape.infer conj in
  let conjunction_class =
    (* an empty specification has no conjunction worth reporting
       (model-only analyze runs lint with zero items) *)
    match alpha with
    | Some alpha when specs <> [] ->
        Omega.Of_formula.classify ?budget alpha conj
    | Some _ | None -> None
  in
  let conjunction_interval =
    match conjunction_class with
    | Some k -> Kappa.exactly k
    | None ->
        if specs = [] then Kappa.top_interval
        else conj_shape.Logic.Shape.interval
  in
  (if (not all_safety) && items <> [] then
     match
       ( conjunction_class,
         conjunction_interval.Kappa.upper )
     with
     | Some k, _ when Kappa.leq k Kappa.Safety ->
         diag W103
           "the conjunction of all requirements collapses to a safety \
            property"
     | None, Some u when Kappa.leq u Kappa.Safety ->
         diag W103
           "the conjunction of all requirements collapses to a safety \
            property"
     | (Some _ | None), (Some _ | None) -> ());
  {
    items;
    diagnostics = List.rev !diags;
    conjunction_class;
    conjunction_interval;
    semantic;
    model = None;
  }

let lint ?budget ?mode specs =
  lint_parsed ?budget ?mode (List.map (fun (n, f) -> (n, f, None)) specs)

let lint_strings ?budget ?mode specs =
  lint_parsed ?budget ?mode
    (List.map
       (fun (n, s) ->
         let sp = Logic.Parser.parse_spanned s in
         (n, sp.Logic.Parser.f, Some (s, sp)))
       specs)

(* Attach source origins (file/line) to the items and to every
   diagnostic that names an originated requirement. *)
let with_origins origins v =
  let of_name n = Option.join (List.assoc_opt n origins) in
  {
    v with
    items = List.map (fun it -> { it with origin = of_name it.iname }) v.items;
    diagnostics =
      List.map
        (fun d ->
          match d.requirement with
          | Some r when d.origin = None -> { d with origin = of_name r }
          | _ -> d)
        v.diagnostics;
  }

let lint_located ?budget ?mode specs =
  with_origins
    (List.map (fun (n, _, origin) -> (n, origin)) specs)
    (lint_strings ?budget ?mode
       (List.map (fun (n, s, _) -> (n, s)) specs))

let with_model (report : Fts.Analyze.report) v =
  let origin_of = function
    | Some r ->
        List.find_map
          (fun it -> if it.iname = r then it.origin else None)
          v.items
    | None -> None
  in
  let model_diags =
    List.map
      (fun (f : Fts.Analyze.finding) ->
        {
          code = Model f.Fts.Analyze.code;
          requirement = f.Fts.Analyze.requirement;
          span = None;
          locus = f.Fts.Analyze.locus;
          origin = origin_of f.Fts.Analyze.requirement;
          message = f.Fts.Analyze.message;
        })
      report.Fts.Analyze.findings
  in
  {
    v with
    diagnostics = v.diagnostics @ model_diags;
    model =
      Some
        {
          model_states = report.Fts.Analyze.n_states;
          model_transitions = report.Fts.Analyze.n_transitions;
          model_checks = report.Fts.Analyze.statuses;
        };
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let item_class_name it =
  match it.klass with
  | Some k -> Kappa.name k
  | None -> Kappa.interval_name it.interval

let pp_verdict ppf v =
  let lines =
    List.map
      (fun it ->
        Printf.sprintf "%-24s %-18s %s" it.iname (item_class_name it)
          (Logic.Formula.to_string it.formula))
      v.items
    @ (match (v.conjunction_class, v.conjunction_interval) with
      | Some k, _ -> [ "conjunction: " ^ Kappa.name k ]
      | None, i when i <> Kappa.top_interval ->
          [ "conjunction: " ^ Kappa.interval_name i ]
      | None, _ -> [])
    @ (match v.model with
      | None -> []
      | Some m ->
          Printf.sprintf "model: %d reachable states, %d transitions"
            m.model_states m.model_transitions
          :: List.filter_map
               (fun (c, st) ->
                 match (st : Fts.Analyze.status) with
                 | Fts.Analyze.Checked | Fts.Analyze.Skipped _ -> None
                 | Fts.Analyze.Not_checked e ->
                     Some
                       (Printf.sprintf "not checked %s: %s"
                          (Fts.Analyze.code_name c)
                          (Fmt.str "%a" Budget.pp_exhaustion e)))
               m.model_checks)
    @
    if v.diagnostics = [] then [ "no diagnostics" ]
    else
      List.map
        (fun d ->
          Printf.sprintf "%s %s: %s"
            (severity_name (severity_of_code d.code))
            (code_name d.code) d.message)
        v.diagnostics
  in
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut string) lines

(* JSON: hand-rolled, deterministic field order, no dependencies. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string s = "\"" ^ json_escape s ^ "\""

let json_opt f = function None -> "null" | Some x -> f x

let json_bool b = if b then "true" else "false"

let json_class k = json_string (Kappa.name k)

let json_interval { Kappa.lower; upper } =
  Printf.sprintf "{\"lower\":%s,\"upper\":%s}" (json_opt json_class lower)
    (json_opt json_class upper)

let json_span { Logic.Parser.start; stop } =
  Printf.sprintf "{\"start\":%d,\"stop\":%d}" start stop

let json_origin { file; line } =
  Printf.sprintf "{\"file\":%s,\"line\":%d}" (json_string file) line

let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let json_item it =
  String.concat ""
    [
      "{\"name\":";
      json_string it.iname;
      ",\"formula\":";
      json_string (Logic.Formula.to_string it.formula);
      ",\"class\":";
      json_opt json_class it.klass;
      ",\"interval\":";
      json_interval it.interval;
      ",\"canonical\":";
      json_opt json_class it.shape.Logic.Shape.canonical;
      ",\"structural\":";
      json_opt json_class it.shape.Logic.Shape.structural;
      ",\"invariant\":";
      json_bool it.shape.Logic.Shape.invariant;
      ",\"satisfiable\":";
      json_opt json_bool it.satisfiable;
      ",\"valid\":";
      json_opt json_bool it.valid;
      ",\"origin\":";
      json_opt json_origin it.origin;
      "}";
    ]

let json_diagnostic d =
  String.concat ""
    [
      "{\"code\":";
      json_string (code_name d.code);
      ",\"severity\":";
      json_string (severity_name (severity_of_code d.code));
      ",\"requirement\":";
      json_opt json_string d.requirement;
      ",\"span\":";
      json_opt json_span d.span;
      ",\"locus\":";
      json_list json_string d.locus;
      ",\"origin\":";
      json_opt json_origin d.origin;
      ",\"message\":";
      json_string d.message;
      "}";
    ]

let json_status (st : Fts.Analyze.status) =
  match st with
  | Fts.Analyze.Checked -> "{\"state\":\"checked\"}"
  | Fts.Analyze.Not_checked e ->
      Printf.sprintf "{\"state\":\"not_checked\",\"reason\":%s}"
        (json_string (Fmt.str "%a" Budget.pp_exhaustion e))
  | Fts.Analyze.Skipped reason ->
      Printf.sprintf "{\"state\":\"skipped\",\"reason\":%s}"
        (json_string reason)

let json_model m =
  String.concat ""
    [
      "{\"states\":";
      string_of_int m.model_states;
      ",\"transitions\":";
      string_of_int m.model_transitions;
      ",\"checks\":[";
      String.concat ","
        (List.map
           (fun (c, st) ->
             Printf.sprintf "{\"code\":%s,\"status\":%s}"
               (json_string (Fts.Analyze.code_name c))
               (json_status st))
           m.model_checks);
      "]}";
    ]

let to_json v =
  String.concat ""
    [
      "{\"items\":[";
      String.concat "," (List.map json_item v.items);
      "],\"conjunction\":{\"class\":";
      json_opt json_class v.conjunction_class;
      ",\"interval\":";
      json_interval v.conjunction_interval;
      "},\"semantic\":";
      json_bool v.semantic;
      ",\"diagnostics\":[";
      String.concat "," (List.map json_diagnostic v.diagnostics);
      "],\"model\":";
      json_opt json_model v.model;
      "}";
    ]

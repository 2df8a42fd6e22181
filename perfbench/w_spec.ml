(* spec: the `hpt lint --file` and `hpt analyze` paths.  One caller, no
   pool.  Seeded specifications go through Engine.lint and
   Lint.to_json; interleaved with them, Engine.analyze runs on the
   examples/specs/*.fts models with their specs and on small seeded
   Fts.Models instances with generated requirements. *)

open Hierarchy

let fuel = 2_000_000
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The codes test/analyze.t pins for the plain `hpt analyze MODEL
   [--file SPEC]` runs on examples/specs, in output order. *)
let pinned_codes () =
  let lines = String.split_on_char '\n' (read_file "test/analyze.t") in
  let strip p s =
    if String.starts_with ~prefix:p s then Some (String.sub s (String.length p) (String.length s - String.length p))
    else None
  in
  let rec go acc = function
    | [] -> List.rev acc
    | l :: rest -> (
        match strip "  $ hpt analyze ../" l with
        | Some cmd -> (
            let body, rest' =
              let rec take b = function
                | l :: r when String.starts_with ~prefix:"  " l && not (String.starts_with ~prefix:"  $" l) -> take (l :: b) r
                | r -> (List.rev b, r)
              in
              take [] rest
            in
            let codes =
              List.filter_map
                (fun l ->
                  match String.split_on_char ' ' (String.trim l) with
                  | ("error" | "warning" | "hint") :: code :: _ when String.ends_with ~suffix:":" code ->
                      Some (String.sub code 0 (String.length code - 1))
                  | _ -> None)
                body
            in
            match String.split_on_char ' ' cmd with
            | [ model ] -> go ((model, None, codes) :: acc) rest'
            | [ model; "--file"; spec ] -> (
                match strip "../" spec with
                | Some spec -> go ((model, Some spec, codes) :: acc) rest'
                | None -> go acc rest')
            | _ -> go acc rest')
        | None -> go acc rest)
  in
  go [] lines

let spec_lines path =
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun l ->
         let t = String.trim l in
         if t = "" || t.[0] = '#' then None
         else
           let i = String.index t '=' in
           Some (String.trim (String.sub t 0 i), String.sub t (i + 1) (String.length t - i - 1)))

let codes_of (v : Lint.verdict) = List.map (fun d -> Lint.code_name d.Lint.code) v.Lint.diagnostics

(* Exact: every semantic answer computed, none cut by the budget. *)
let lint_exact (v : Lint.verdict) =
  v.Lint.conjunction_class <> None
  && match v.Lint.model with
     | None -> true
     | Some m -> List.for_all (fun (_, s) -> s = Fts.Analyze.Checked) m.Lint.model_checks

let item_problem (v : Lint.verdict) =
  List.find_map
    (fun (it : Lint.item) ->
      match it.Lint.klass with
      | None -> None
      | Some k ->
          if not (Kappa.mem it.Lint.interval k) then
            Checks.fail "%s: class %s outside its interval" it.Lint.iname (Kappa.name k)
          else Checks.within_shape k (Logic.Shape.upper it.Lint.shape))
    v.Lint.items

let answer_of ~budget ?(problem = fun _ -> None) = function
  | Ok v ->
      {
        Closed.rendered = Lint.to_json v;
        exact = Some (lint_exact v);
        spent = Budget.spent budget;
        problem = (match item_problem v with Some p -> Some p | None -> problem v);
      }
  | Error e ->
      let msg = Format.asprintf "%a" Engine.pp_error e in
      { rendered = msg; exact = Some false; spent = Budget.spent budget; problem = Some ("error: " ^ msg) }

let lint_op specs =
  {
    Closed.label = String.concat "; " (List.map (fun (n, f) -> n ^ "=" ^ f) specs);
    kind = "lint";
    run =
      (fun () ->
        let budget = Budget.make ~fuel () in
        answer_of ~budget (Engine.lint ~budget specs));
  }

let analyze_op ~label ~model ~specs ?expect () =
  let specs3 = List.map (fun (n, f) -> (n, f, None)) specs in
  let problem v =
    match expect with
    | Some codes when codes_of v <> codes ->
        Checks.fail "codes %s, test/analyze.t pins %s" (String.concat "," (codes_of v)) (String.concat "," codes)
    | _ -> None
  in
  {
    Closed.label;
    kind = "analyze";
    run =
      (fun () ->
        let budget = Budget.make ~fuel () in
        answer_of ~budget ~problem (Engine.analyze ~budget ~model:(model ()) specs3));
  }

(* A pinned example: the model text is parsed on every call, as
   `hpt analyze` does. *)
let example (fts, spec, codes) =
  let text = read_file fts in
  let file_specs = match spec with Some s -> spec_lines s | None -> [] in
  let inline = snd (Fts.Parse.parse ~name:fts text) in
  analyze_op ~label:fts
    ~model:(fun () -> fst (Fts.Parse.parse ~name:fts text))
    ~specs:(List.map (fun s -> (s.Fts.Parse.sname, s.Fts.Parse.stext)) inline @ file_specs)
    ~expect:codes ()

let size ~tiny = if tiny then (12, 4) else (160, 40)

(* seconds per pass on 2 shared cores *)
let pass_s = 4.

let ops ~tiny ~seed =
  let n_lint, n_models = size ~tiny in
  let lints = List.map lint_op (Gen.lint_specs ~seed n_lint) in
  let models =
    List.map example (pinned_codes ())
    @ List.map
        (fun (q : Gen.model_query) ->
          analyze_op
            ~label:(q.Gen.mname ^ ": " ^ String.concat "; " (List.map (fun (n, f) -> n ^ "=" ^ f) q.Gen.specs))
            ~model:q.Gen.model ~specs:q.Gen.specs ())
        (Gen.model_queries ~seed n_models)
  in
  (* four lint requests, then one analyze, and so on *)
  let rec mix ls ms =
    match (ls, ms) with
    | a :: b :: c :: d :: ls, m :: ms -> a :: b :: c :: d :: m :: mix ls ms
    | ls, ms -> ls @ ms
  in
  mix lints models

let probe () = ignore ((lint_op [ ("a", "[] (p -> <> q)"); ("b", "[] !(p & q)") ]).Closed.run ())

(* The traced run: the same specifications and models, with each public
   call the two paths are made of timed from outside.  analyze_spec.ms
   is Fts.Analyze.analyze with specs minus the same call without;
   check.ms is the full model check of each requirement, the reference
   the analysis is meant to undercut. *)
let layers ~tiny ~seed =
  let n_lint, n_models = size ~tiny in
  let acc = Meter.Acc.create () in
  List.iter
    (fun n -> Meter.Acc.add acc ~unit_:"ms" (n ^ ".ms") 0.)
    [ "lint"; "tableau"; "render"; "fts_parse"; "analyze_structural"; "analyze_spec"; "closure_automaton"; "check" ];
  let timed name f = Meter.Acc.timed acc name f in
  let budget () = Budget.make ~fuel () in
  let quietly f = try ignore (f ()) with Budget.Tripped _ | Logic.Tableau.Unsupported _ | Invalid_argument _ -> () in
  let plain = ref 0. and attempted = ref 0 and failed = ref 0 in
  let model_work sys specs =
    incr attempted;
    let parsed = List.map (fun (n, f) -> (n, Logic.Parser.parse f)) specs in
    let (), t_struct = Meter.time (fun () -> timed "analyze_structural" (fun () -> quietly (fun () -> Fts.Analyze.analyze ~budget:(budget ()) sys))) in
    let (), t_full = Meter.time (fun () -> quietly (fun () -> Fts.Analyze.analyze ~budget:(budget ()) ~specs:parsed sys)) in
    Meter.Acc.add acc ~unit_:"ms" "analyze_spec.ms" ((t_full -. t_struct) *. 1000.);
    List.iter
      (fun (_, f) ->
        let atoms = List.sort_uniq compare (Logic.Formula.atoms f) in
        if atoms <> [] && List.length atoms <= 14 then
          quietly (fun () ->
              let a = timed "closure_automaton" (fun () -> Fts.Check.closure_automaton ~budget:(budget ()) sys ~atoms) in
              Meter.Acc.add acc "closure_automaton.states" (float a.Omega.Automaton.n));
        quietly (fun () -> timed "check" (fun () -> Fts.Check.holds ~budget:(budget ()) sys f)))
      parsed
  in
  Meter.with_gc acc (fun () ->
      List.iter
        (fun specs ->
          let (), dt =
            Meter.time (fun () ->
                match Engine.lint ~budget:(budget ()) specs with Ok v -> ignore (Lint.to_json v) | Error _ -> ())
          in
          plain := !plain +. dt;
          incr attempted;
          (match timed "lint" (fun () -> Engine.lint ~budget:(budget ()) specs) with
          | Ok v ->
              ignore (timed "render" (fun () -> Lint.to_json v));
              if item_problem v <> None then incr failed
          | Error _ -> incr failed);
          let fs = List.map (fun (_, f) -> Logic.Parser.parse f) specs in
          let alpha =
            Finitary.Alphabet.of_props (List.sort_uniq compare (List.concat_map Logic.Formula.atoms fs))
          in
          List.iter
            (fun f ->
              timed "tableau" (fun () ->
                  quietly (fun () -> Logic.Tableau.satisfiable ~budget:(budget ()) alpha f);
                  quietly (fun () -> Logic.Tableau.valid ~budget:(budget ()) alpha f)))
            fs)
        (Gen.lint_specs ~seed n_lint);
      List.iter
        (fun (fts, spec, _) ->
          let text = read_file fts in
          let sys, inline = timed "fts_parse" (fun () -> Fts.Parse.parse ~name:fts text) in
          model_work sys
            (List.map (fun s -> (s.Fts.Parse.sname, s.Fts.Parse.stext)) inline
            @ match spec with Some s -> spec_lines s | None -> []))
        (pinned_codes ());
      List.iter (fun (q : Gen.model_query) -> model_work (q.Gen.model ()) q.Gen.specs) (Gen.model_queries ~seed n_models));
  Meter.Acc.add acc ~unit_:"ratio" "trace_overhead"
    ((Meter.Acc.get acc "lint.ms" +. Meter.Acc.get acc "render.ms") /. (!plain *. 1000.));
  { Meter.attempted = !attempted; failed = !failed; metrics = Meter.Acc.metrics ~prefix:"spec" acc; extra = [] }

(* hpt — the Hierarchy of temporal ProperTies, on the command line.

   Subcommands: classify, build, lint, analyze, equiv, witness, views.

   Every subcommand goes through [Hierarchy.Engine], so no exception
   (and no backtrace) ever reaches the terminal: structured errors
   become one-line messages on stderr.  Exit codes: 0 success, 1
   usage / parse / validation error, 2 budget exceeded (a partial
   verdict is still printed when one exists), 3 internal error.

   Observability: --stats prints a per-phase telemetry report (span
   tree, counters, histograms) after the result; --trace-json FILE
   streams the same data as JSON lines. *)

open Cmdliner
module Engine = Hierarchy.Engine

let props_arg =
  let doc = "Comma-separated atomic propositions forming the alphabet." in
  Arg.(value & opt (some string) None & info [ "props"; "p" ] ~docv:"P,Q,..." ~doc)

let chars_arg =
  let doc = "Symbolic alphabet given as characters (e.g. 'ab')." in
  Arg.(value & opt (some string) None & info [ "chars"; "c" ] ~docv:"CHARS" ~doc)

let fuel_arg =
  let doc =
    "Abort (gracefully) after $(docv) units of work; classification \
     degrades to a class interval computed from what completed."
  in
  Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"TICKS" ~doc)

let timeout_arg =
  let doc = "Wall-clock budget in milliseconds; same degradation as --fuel." in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let stats_arg =
  let doc =
    "Print a telemetry report (per-phase span tree, counters, histograms) \
     after the result."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let trace_arg =
  let doc =
    "Stream telemetry to $(docv) as JSON lines: one object per completed \
     span, then one per counter and histogram."
  in
  Arg.(value & opt (some string) None & info [ "trace-json" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Run on $(docv) domains (a fixed pool).  Only the formulas of a \
     batch fan out; one classification runs on one domain.  The result \
     is identical to the sequential run at every job count; $(docv)=1 \
     exercises the pool's sequential path."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let engine_arg =
  let doc =
    "Language-inclusion engine: $(b,antichain) (on-the-fly lazy product, \
     the default) or $(b,explicit) (complement-and-product oracle).  \
     Verdicts are identical; the oracle exists to replay any run on the \
     historical path."
  in
  Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"ENGINE" ~doc)

let formula_arg =
  let doc = "Temporal formula, e.g. '[] (p -> <> q)'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc)

let fail e =
  Fmt.epr "error: %a@." Engine.pp_error e;
  Engine.exit_code e

(* [--jobs N] builds a pool for the duration of the run; without the
   flag the legacy in-process path runs (not even the pool's jobs=1
   path), so existing outputs and degradation behaviour are untouched.
   [Pool.create] validates N through the engine boundary. *)
let with_jobs jobs f =
  match jobs with
  | None -> f None
  | Some n ->
      Result.join
        (Engine.protect (fun () -> Pool.with_pool ~jobs:n (fun p -> f (Some p))))

(* [--engine E] names the language-inclusion engine; the subcommands
   hand it to the engine's entry points as [?engine], which scope it to
   the call (and its pool tasks). *)
let parse_engine = function
  | None -> Ok None
  | Some s -> Result.map Option.some (Engine.inclusion_engine_of_string s)

(* Build the budget and the telemetry handle, run [f] on them, and map
   the result to an exit code.  [Budget.make] validates its arguments
   and [open_out] can fail on an unwritable path, so both go through
   the engine boundary.  The trace sink is a [Telemetry.line_writer]:
   whole flushed lines, write failures marked instead of raised, and
   the channel closed whether [f] returns, errors, or raises (the
   writer also registers an [at_exit] backstop). *)
let with_observability fuel timeout_ms stats trace f =
  match Engine.protect (fun () -> Budget.make ?fuel ?timeout_ms ()) with
  | Error e -> fail e
  | Ok budget -> (
      match
        Engine.protect (fun () ->
            Option.map (fun p -> Telemetry.line_writer (open_out p)) trace)
      with
      | Error e -> fail e
      | Ok writer ->
          Fun.protect
            ~finally:(fun () -> Option.iter Telemetry.close_lines writer)
            (fun () ->
              let telemetry =
                match writer with
                | Some w -> Telemetry.jsonl_channel w
                | None ->
                    if stats then Telemetry.collector () else Telemetry.disabled
              in
              let code =
                match f budget telemetry with Ok c -> c | Error e -> fail e
              in
              Telemetry.flush telemetry;
              if stats then
                Fmt.pr "%a@." Telemetry.pp_report (Telemetry.report telemetry);
              code))

(* ---------------- classify ---------------- *)

let classify_cmd =
  let formulas_arg =
    let doc =
      "Temporal formula, e.g. '[] (p -> <> q)'.  Repeatable: with \
       several formulas each is classified (and with --jobs, the batch \
       runs on the pool) and the worst exit code wins."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FORMULA" ~doc)
  in
  let run props chars fuel timeout_ms stats trace jobs engine formulas =
    with_observability fuel timeout_ms stats trace @@ fun budget telemetry ->
    Result.bind (parse_engine engine) @@ fun engine ->
    with_jobs jobs @@ fun pool ->
    let results =
      Engine.classify_batch ~budget ~telemetry ?pool ?engine ?props ?chars
        formulas
    in
    let batch = List.length formulas > 1 in
    let code_of formula_s = function
      | Ok (r : Engine.report) ->
          Fmt.pr "%s@.%a@." formula_s Engine.pp_report r;
          (* degraded partial verdict: still printed, but signalled *)
          (match r.Engine.exhausted with Some _ -> 2 | None -> 0)
      | Error e ->
          (* in a batch, name the input that failed — the worst exit
             code wins below, so without the prefix a mixed run's
             stderr would not say which formula produced it *)
          if batch then begin
            Fmt.epr "error: %s: %a@." formula_s Engine.pp_error e;
            Engine.exit_code e
          end
          else fail e
    in
    Ok
      (List.fold_left2
         (fun acc f r -> max acc (code_of f r))
         0 formulas results)
  in
  let info =
    Cmd.info "classify"
      ~doc:"Locate a temporal formula in the safety-progress hierarchy"
  in
  Cmd.v info
    Term.(const run $ props_arg $ chars_arg $ fuel_arg $ timeout_arg
          $ stats_arg $ trace_arg $ jobs_arg $ engine_arg $ formulas_arg)

(* ---------------- build ---------------- *)

let build_cmd =
  let op_arg =
    let doc =
      "The paper's finitary-to-infinitary operator: A (all non-empty \
       prefixes), E (some prefix), R (infinitely many prefixes), P (all \
       but finitely many prefixes)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let re_arg =
    let doc =
      "Regular expression over the alphabet.  Single characters name \
       letters; quote multi-character letters ('lock') and write \
       propositional letters with braces ({p,q})."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"REGEX" ~doc)
  in
  let run props chars fuel timeout_ms stats trace op re =
    with_observability fuel timeout_ms stats trace @@ fun budget telemetry ->
    Result.map
      (fun (r : Engine.report) ->
        Fmt.pr "%s(%s)@.%a@." (String.uppercase_ascii op) re Engine.pp_report r;
        match r.Engine.exhausted with Some _ -> 2 | None -> 0)
      (Engine.classify_regex ~budget ~telemetry ?props ?chars ~op re)
  in
  let info =
    Cmd.info "build"
      ~doc:
        "Build an omega-property from an operator applied to a regular \
         expression and locate it in the hierarchy"
  in
  Cmd.v info
    Term.(const run $ props_arg $ chars_arg $ fuel_arg $ timeout_arg
          $ stats_arg $ trace_arg $ op_arg $ re_arg)

(* ---------------- views ---------------- *)

let views_cmd =
  let run props chars fuel timeout_ms stats trace formula_s =
    with_observability fuel timeout_ms stats trace @@ fun budget telemetry ->
    Result.bind (Engine.parse formula_s) @@ fun f ->
    Result.bind (Engine.alphabet ?props ?chars [ f ]) @@ fun alpha ->
    Result.map
      (function
        | None ->
            Fmt.pr "outside the canonical fragment@.";
            0
        | Some (v : Engine.views) ->
            Fmt.pr "@[<v>formula      : %s@," formula_s;
            Fmt.pr "canonical    : %a@," Logic.Rewrite.pp v.Engine.canon;
            Fmt.pr "automaton    :@,%a@," Omega.Automaton.pp v.Engine.automaton;
            Fmt.pr "safety part  : %d states; liveness part: %d states@,"
              v.Engine.safety_part.Omega.Automaton.n
              v.Engine.liveness_part.Omega.Automaton.n;
            (match v.Engine.model with
            | Some w ->
                Fmt.pr "a model      : %a@," (Finitary.Word.pp_lasso alpha) w
            | None -> Fmt.pr "a model      : (language empty)@,");
            Fmt.pr "@]";
            0)
      (Engine.views ~budget ~telemetry alpha f)
  in
  let info =
    Cmd.info "views" ~doc:"Show a formula in all views of the hierarchy"
  in
  Cmd.v info
    Term.(const run $ props_arg $ chars_arg $ fuel_arg $ timeout_arg
          $ stats_arg $ trace_arg $ formula_arg)

(* ---------------- lint / analyze ---------------- *)

(* Shared machinery for [lint] and [analyze]: requirements arrive as
   NAME=FORMULA strings from the command line (no origin) or from a
   spec file (origin = file/line, carried into JSON findings), and a
   verdict prints and maps to an exit code the same way in both. *)

let read_lines path =
  Engine.protect (fun () ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go acc =
            match input_line ic with
            | l -> go (l :: acc)
            | exception End_of_file -> List.rev acc
          in
          go []))

let parse_spec ~where ~origin spec =
  match String.index_opt spec '=' with
  | Some i ->
      Ok
        ( String.trim (String.sub spec 0 i),
          String.sub spec (i + 1) (String.length spec - i - 1),
          origin )
  | None -> Error (Engine.Invalid_input (where ^ ": expected NAME=FORMULA"))

let rec parse_all_specs = function
  | [] -> Ok []
  | (where, origin, s) :: rest ->
      Result.bind (parse_spec ~where ~origin s) @@ fun p ->
      Result.map (fun ps -> p :: ps) (parse_all_specs rest)

let specs_of_file = function
  | None -> Ok []
  | Some path ->
      Result.bind (read_lines path) @@ fun lines ->
      parse_all_specs
        (List.filteri
           (fun _ (_, _, l) ->
             let l = String.trim l in
             l <> "" && l.[0] <> '#')
           (List.mapi
              (fun i l ->
                ( Printf.sprintf "%s:%d" path (i + 1),
                  Some { Hierarchy.Lint.file = path; line = i + 1 },
                  l ))
              lines))

let specs_of_cli specs =
  parse_all_specs (List.map (fun s -> (s, None, s)) specs)

let lint_mode syntactic semantic =
  match (syntactic, semantic) with
  | true, true ->
      Error
        (Engine.Invalid_input
           "--syntactic-only and --semantic are mutually exclusive")
  | true, false -> Ok Hierarchy.Lint.Syntactic_only
  | false, true -> Ok Hierarchy.Lint.Semantic
  | false, false -> Ok Hierarchy.Lint.Auto

(* Exit codes double as the CI gate: 2 when any model check was cut
   short by the budget (the findings are incomplete, so neither
   "clean" nor "broken" would be sound), else 1 when any diagnostic
   is an error, else 0. *)
let verdict_exit_code v =
  let open Hierarchy.Lint in
  let not_checked =
    match v.model with
    | None -> false
    | Some m ->
        List.exists
          (fun (_, s) ->
            match s with Fts.Analyze.Not_checked _ -> true | _ -> false)
          m.model_checks
  in
  if not_checked then 2
  else if
    List.exists (fun d -> severity_of_code d.code = Error) v.diagnostics
  then 1
  else 0

let print_verdict format v =
  match format with
  | `Text -> Fmt.pr "%a@." Hierarchy.Lint.pp_verdict v
  | `Json -> print_endline (Hierarchy.Lint.to_json v)

let format_arg =
  let doc = "Output format: $(b,text) or $(b,json)." in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc)

let spec_file_arg =
  let doc =
    "Read requirements from $(docv): one NAME = FORMULA per line; blank \
     lines and lines starting with # are ignored.  JSON findings carry \
     the originating file and line."
  in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)

let syntactic_arg =
  let doc =
    "Skip semantic refinement entirely: only the linear syntactic pass \
     runs, so any number of atoms is accepted."
  in
  Arg.(value & flag & info [ "syntactic-only" ] ~doc)

let semantic_arg =
  let doc =
    "Force semantic refinement, including the pairwise \
     subsumption/conflict checks on large specifications."
  in
  Arg.(value & flag & info [ "semantic" ] ~doc)

(* Load the model, merge its inline [spec] directives (origin = the
   model file itself) with the given requirements, and run the full
   model-aware analysis. *)
let run_model_analysis ~budget ~telemetry ~mode ?engine ~format path
    specs =
  Result.bind (Engine.protect (fun () -> Fts.Parse.load ~budget path))
  @@ fun (sys, inline) ->
  let inline_specs =
    List.map
      (fun s ->
        ( s.Fts.Parse.sname,
          s.Fts.Parse.stext,
          Some { Hierarchy.Lint.file = path; line = s.Fts.Parse.sline } ))
      inline
  in
  Result.map
    (fun v ->
      print_verdict format v;
      verdict_exit_code v)
    (Engine.analyze ~budget ~telemetry ~mode ?engine ~model:sys
       (inline_specs @ specs))

let lint_cmd =
  let specs_arg =
    let doc = "Requirement of the form NAME=FORMULA (repeatable)." in
    Arg.(value & pos_all string [] & info [] ~docv:"NAME=FORMULA" ~doc)
  in
  let model_arg =
    let doc =
      "Also analyze the fair transition system in $(docv) (see \
       $(b,hpt analyze)): structural and model-aware findings are \
       appended to the formula-only diagnostics."
    in
    Arg.(value & opt (some file) None & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let run fuel timeout_ms stats trace engine file model format syntactic
      semantic specs =
    with_observability fuel timeout_ms stats trace @@ fun budget telemetry ->
    Result.bind (parse_engine engine) @@ fun engine ->
    Result.bind (lint_mode syntactic semantic) @@ fun mode ->
    Result.bind (specs_of_file file) @@ fun file_specs ->
    Result.bind (specs_of_cli specs) @@ fun cli_specs ->
    let all = file_specs @ cli_specs in
    match model with
    | Some path ->
        run_model_analysis ~budget ~telemetry ~mode ?engine ~format path all
    | None ->
        if all = [] then
          Error
            (Engine.Invalid_input
               "no requirements: give NAME=FORMULA or --file")
        else
          Result.map
            (fun v ->
              (* retrofit --file origins so JSON findings say where
                 each requirement came from *)
              let v =
                Hierarchy.Lint.with_origins
                  (List.map (fun (n, _, o) -> (n, o)) all)
                  v
              in
              print_verdict format v;
              verdict_exit_code v)
            (Engine.lint ~budget ~telemetry ~mode ?engine
               (List.map (fun (n, s, _) -> (n, s)) all))
  in
  let info =
    Cmd.info "lint"
      ~doc:
        "Analyze a specification: classify each requirement, report coded \
         diagnostics (underspecification, vacuity, conflicts, redundancy, \
         class downgrades)"
  in
  Cmd.v info
    Term.(const run $ fuel_arg $ timeout_arg $ stats_arg $ trace_arg
          $ engine_arg $ spec_file_arg $ model_arg $ format_arg
          $ syntactic_arg $ semantic_arg $ specs_arg)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let model_arg =
    let doc =
      "Fair-transition-system model file: var/init/trans/fair/spec lines \
       (see the manual for the format)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MODEL" ~doc)
  in
  let spec_arg =
    let doc =
      "Extra requirement of the form NAME=FORMULA, analyzed against the \
       model (repeatable)."
    in
    Arg.(
      value & opt_all string [] & info [ "spec"; "s" ] ~docv:"NAME=FORMULA" ~doc)
  in
  let run fuel timeout_ms stats trace engine file format syntactic
      semantic cli_specs model =
    with_observability fuel timeout_ms stats trace @@ fun budget telemetry ->
    Result.bind (parse_engine engine) @@ fun engine ->
    Result.bind (lint_mode syntactic semantic) @@ fun mode ->
    Result.bind (specs_of_file file) @@ fun file_specs ->
    Result.bind (specs_of_cli cli_specs) @@ fun extra_specs ->
    run_model_analysis ~budget ~telemetry ~mode ?engine ~format model
      (file_specs @ extra_specs)
  in
  let info =
    Cmd.info "analyze"
      ~doc:
        "Model-aware static analysis of a fair transition system and its \
         specification: unreachable states, dead transitions, deadlock \
         sinks, vacuous fairness, antecedent-failure vacuity, constant \
         spec atoms, verdict-robustness hints.  Exit code 2 means the \
         budget cut some check short (reported as 'not checked', never \
         dropped)."
  in
  Cmd.v info
    Term.(const run $ fuel_arg $ timeout_arg $ stats_arg $ trace_arg
          $ engine_arg $ spec_file_arg $ format_arg
          $ syntactic_arg $ semantic_arg $ spec_arg $ model_arg)

(* ---------------- equiv ---------------- *)

let equiv_cmd =
  let f2_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FORMULA2")
  in
  let run props chars fuel timeout_ms stats trace f1s f2s =
    with_observability fuel timeout_ms stats trace @@ fun budget telemetry ->
    Result.bind (Engine.parse f1s) @@ fun f1 ->
    Result.bind (Engine.parse f2s) @@ fun f2 ->
    Result.bind (Engine.alphabet ?props ?chars [ f1; f2 ]) @@ fun alpha ->
    Result.map
      (function
        | `Equivalent ->
            Fmt.pr "equivalent@.";
            0
        | `Distinct (w, side) ->
            Fmt.pr "not equivalent@.";
            Fmt.pr "witness: %a (%s)@." (Finitary.Word.pp_lasso alpha) w
              (match side with
              | Engine.First_only -> "satisfies the first only"
              | Engine.Second_only -> "satisfies the second only");
            0)
      (Engine.equiv ~budget ~telemetry alpha f1 f2)
  in
  let info =
    Cmd.info "equiv" ~doc:"Decide equivalence of two temporal formulas"
  in
  Cmd.v info
    Term.(const run $ props_arg $ chars_arg $ fuel_arg $ timeout_arg
          $ stats_arg $ trace_arg $ formula_arg $ f2_arg)

(* ---------------- witness ---------------- *)

let witness_cmd =
  let run props chars fuel timeout_ms stats trace fs =
    with_observability fuel timeout_ms stats trace @@ fun budget telemetry ->
    Result.bind (Engine.parse fs) @@ fun f ->
    Result.bind (Engine.alphabet ?props ?chars [ f ]) @@ fun alpha ->
    Result.map
      (function
        | Some w ->
            Fmt.pr "%a@." (Finitary.Word.pp_lasso alpha) w;
            0
        | None ->
            Fmt.pr "unsatisfiable@.";
            0)
      (Engine.witness ~budget ~telemetry alpha f)
  in
  let info = Cmd.info "witness" ~doc:"Produce a model of a temporal formula" in
  Cmd.v info
    Term.(const run $ props_arg $ chars_arg $ fuel_arg $ timeout_arg
          $ stats_arg $ trace_arg $ formula_arg)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let d = Serve.Daemon.default_config in
  let port_arg =
    let doc = "Listen on 127.0.0.1:$(docv) (TCP, one JSON frame per line)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let stdio_arg =
    let doc = "Serve one session on stdin/stdout (the default)." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let serve_jobs_arg =
    let doc = "Worker domains answering requests." in
    Arg.(value & opt int d.Serve.Daemon.jobs & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let refine_every_arg =
    let doc =
      "Serve one queued background refinement after every $(docv) client \
       requests even while client work is pending, so refinements make \
       progress under sustained load."
    in
    Arg.(
      value
      & opt int d.Serve.Daemon.refine_every
      & info [ "refine-every" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Admit at most $(docv) requests (queued + running); further requests \
       are shed immediately with an $(b,overloaded) error."
    in
    Arg.(
      value
      & opt int d.Serve.Daemon.max_inflight
      & info [ "max-inflight" ] ~docv:"K" ~doc)
  in
  let default_fuel_arg =
    let doc = "Per-request fuel when the client does not send one." in
    Arg.(
      value
      & opt int d.Serve.Daemon.default_fuel
      & info [ "default-fuel" ] ~docv:"TICKS" ~doc)
  in
  let max_fuel_arg =
    let doc =
      "Ceiling on client-requested fuel and on background refinement \
       escalation."
    in
    Arg.(
      value & opt int d.Serve.Daemon.max_fuel & info [ "max-fuel" ] ~docv:"TICKS" ~doc)
  in
  let default_timeout_arg =
    let doc = "Per-request wall-clock budget when the client sends none." in
    Arg.(
      value
      & opt float d.Serve.Daemon.default_timeout_ms
      & info [ "default-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let max_timeout_arg =
    let doc = "Ceiling on client-requested wall-clock budgets." in
    Arg.(
      value
      & opt float d.Serve.Daemon.max_timeout_ms
      & info [ "max-timeout-ms" ] ~docv:"MS" ~doc)
  in
  let cache_mb_arg =
    let doc =
      "Total size bound (MiB), split in half between the response cache and \
       the complement cache; 0 disables caching."
    in
    Arg.(
      value & opt int d.Serve.Daemon.cache_mb & info [ "cache-mb" ] ~docv:"MB" ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON line per request (latency, outcome, budget spent, \
       cache disposition) to $(docv); $(b,-) logs to stderr."
    in
    Arg.(
      value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let debug_ops_arg =
    let doc =
      "Enable the fault-injection ops ($(b,spin), $(b,inject_trip_at)) used \
       by the chaos and watchdog tests.  Off by default."
    in
    Arg.(value & flag & info [ "debug-ops" ] ~doc)
  in
  let max_frame_arg =
    let doc = "Reject request lines longer than $(docv) bytes." in
    Arg.(
      value
      & opt int d.Serve.Daemon.max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let run port stdio jobs max_inflight default_fuel max_fuel
      default_timeout_ms max_timeout_ms refine_every cache_mb access_log
      debug_ops max_frame =
    let config =
      {
        Serve.Daemon.port = (if stdio then None else port);
        jobs;
        max_inflight;
        default_fuel;
        max_fuel;
        default_timeout_ms;
        max_timeout_ms;
        refine_every;
        cache_mb;
        access_log;
        debug_ops;
        max_frame;
      }
    in
    match Engine.protect (fun () -> Serve.Daemon.run config) with
    | Ok () -> 0
    | Error e -> fail e
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run a long-lived classification service speaking newline-delimited \
         JSON over stdin/stdout or a localhost TCP socket, with per-request \
         budgets, load shedding and bounded caches"
  in
  Cmd.v info
    Term.(const run $ port_arg $ stdio_arg $ serve_jobs_arg
          $ max_inflight_arg $ default_fuel_arg $ max_fuel_arg
          $ default_timeout_arg $ max_timeout_arg $ refine_every_arg
          $ cache_mb_arg $ access_log_arg $ debug_ops_arg $ max_frame_arg)

let main =
  let info =
    Cmd.info "hpt" ~version:"1.0.0"
      ~doc:"The Manna-Pnueli hierarchy of temporal properties"
  in
  Cmd.group info
    [
      classify_cmd;
      build_cmd;
      views_cmd;
      lint_cmd;
      analyze_cmd;
      equiv_cmd;
      witness_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main)

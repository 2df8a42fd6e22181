(* classify: the `hpt classify` path.  One caller, no pool: each
   generated formula goes through Engine.classify under a fixed fuel and
   is rendered with Engine.pp_report. *)

open Hierarchy

let fuel = 200_000
let size ~tiny = if tiny then 200 else 3000

(* seconds per pass on 2 shared cores *)
let pass_s = 1.7

let answer (q : Gen.query) =
  let budget = Budget.make ~fuel () in
  let spent () = Budget.spent budget in
  match Engine.classify ~budget ~props:q.Gen.props q.Gen.text with
  | Ok r ->
      {
        Closed.rendered = Format.asprintf "%a" Engine.pp_report r;
        exact = Some (match r.Engine.verdict with Engine.Exact _ -> true | _ -> false);
        spent = spent ();
        problem = Checks.report ?expect:q.Gen.expect r;
      }
  | Error e ->
      let msg = Format.asprintf "%a" Engine.pp_error e in
      { rendered = msg; exact = Some false; spent = spent (); problem = Some ("error: " ^ msg) }

let ops ~tiny ~seed =
  List.map
    (fun (q : Gen.query) ->
      { Closed.label = Printf.sprintf "--props=%s '%s'" q.props q.text; kind = "classify"; run = (fun () -> answer q) })
    (Gen.classify_queries ~seed (size ~tiny))

let probe () =
  ignore (answer { Gen.props = "p,q"; text = "[] (p -> <> q)"; expect = Some Kappa.Recurrence })

let layer_names =
  [ "parser"; "shape"; "translate"; "columns"; "liveness"; "uniform_liveness"; "counter_free"; "render"; "engine" ]

(* One pass in which each formula is classified by Engine.classify and
   then, on the same inputs, by the public calls it is made of, each
   timed from outside.  engine.gap_ms is the engine's time the calls do
   not account for.  The overhead pair times the engine call plain and
   under the timers, interleaved per formula. *)
let layers ~tiny ~seed =
  let qs = Gen.classify_queries ~seed (size ~tiny) in
  let acc = Meter.Acc.create () in
  List.iter (fun n -> Meter.Acc.add acc ~unit_:"ms" (n ^ ".ms") 0.) layer_names;
  let plain = ref 0. and failed = ref 0 in
  Meter.with_gc acc (fun () ->
      List.iter
        (fun (q : Gen.query) ->
          let (), dt =
            Meter.time (fun () ->
                match Engine.classify ~budget:(Budget.make ~fuel ()) ~props:q.props q.text with
                | Ok r -> ignore (Format.asprintf "%a" Engine.pp_report r)
                | Error _ -> ())
          in
          plain := !plain +. dt;
          (match
             Meter.Acc.timed acc "engine" (fun () ->
                 Engine.classify ~budget:(Budget.make ~fuel ()) ~props:q.props q.text)
           with
          | Ok r ->
              ignore (Meter.Acc.timed acc "render" (fun () -> Format.asprintf "%a" Engine.pp_report r));
              if Checks.report ?expect:q.expect r <> None then incr failed
          | Error _ -> incr failed);
          let b = Budget.make ~fuel () in
          let timed name f = Meter.Acc.timed acc name f in
          let f = timed "parser" (fun () -> Logic.Parser.parse q.text) in
          let alpha = Finitary.Alphabet.of_props (String.split_on_char ',' q.props) in
          ignore (timed "shape" (fun () -> Logic.Shape.infer f));
          match timed "translate" (fun () -> Omega.Of_formula.translate ~budget:b alpha f) with
          | exception Budget.Tripped _ -> ()
          | None -> ()
          | Some a ->
              Meter.Acc.add acc "translate.states" (float a.Omega.Automaton.n);
              let ticks name f =
                let s0 = Budget.spent b in
                let x = timed name f in
                Meter.Acc.add acc (name ^ ".ticks") (float (Budget.spent b - s0));
                x
              in
              ignore (ticks "columns" (fun () -> Omega.Classify.classify_budgeted ~budget:b a));
              let guarded f =
                if Budget.exhausted b = None then
                  try f () with Budget.Tripped _ | Omega.Counter_free.Monoid_too_large _ -> ()
              in
              guarded (fun () -> ignore (timed "liveness" (fun () -> Omega.Lang.is_liveness a)));
              guarded (fun () ->
                  ignore (ticks "uniform_liveness" (fun () -> Omega.Lang.is_uniform_liveness ~budget:b a)));
              guarded (fun () ->
                  ignore (timed "counter_free" (fun () -> Omega.Counter_free.is_counter_free ~budget:b a))))
        qs);
  let parts =
    List.fold_left
      (fun s n -> s +. Meter.Acc.get acc (n ^ ".ms"))
      0.
      [ "parser"; "shape"; "translate"; "columns"; "liveness"; "uniform_liveness"; "counter_free" ]
  in
  Meter.Acc.add acc ~unit_:"ms" "engine.gap_ms" (Meter.Acc.get acc "engine.ms" -. parts);
  Meter.Acc.add acc ~unit_:"ratio" "trace_overhead"
    ((Meter.Acc.get acc "engine.ms" +. Meter.Acc.get acc "render.ms") /. (!plain *. 1000.));
  { Meter.attempted = List.length qs; failed = !failed; metrics = Meter.Acc.metrics ~prefix:"classify" acc; extra = [] }

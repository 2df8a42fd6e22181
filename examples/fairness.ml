(* Fairness and the responsiveness ladder (section 4 of the paper).

   Weak fairness is a recurrence property; strong fairness is a simple
   reactivity property — and the difference is observable: a one-resource
   allocator guarantees accessibility under strong fairness of its grant
   transitions but not under weak fairness.

   Run with: dune exec examples/fairness.exe *)

let () =
  Format.printf "== The responsiveness ladder ==@.";
  (* The paper's summary of responsiveness variants, one per class. *)
  let pq = Finitary.Alphabet.of_props [ "p"; "q" ] in
  List.iter
    (fun (reading, s) ->
      match Hierarchy.Engine.classify_formula pq (Logic.Parser.parse s) with
      | Ok { verdict = Hierarchy.Engine.Exact k; _ } ->
          Format.printf "  %-34s %-24s -> %s@." s reading (Kappa.name k)
      | Ok _ | Error _ -> Format.printf "  %-34s (not translatable)@." s)
    [
      ("if p initially, q eventually", "p -> <> q");
      ("first p answered once", "<> p -> <> (q & O p)");
      ("every p answered", "[] (p -> <> q)");
      ("p answered by stabilization", "p -> <>[] q");
      ("infinitely many p, inf. many q", "[]<> p -> []<> q");
    ];

  Format.printf "@.== Fairness requirements as formulas ==@.";
  let en_taken = Finitary.Alphabet.of_props [ "en"; "taken" ] in
  let weak = "[]<>(!en | taken)" in
  let strong = "[]<> en -> []<> taken" in
  List.iter
    (fun (name, s) ->
      match Hierarchy.Engine.classify_formula en_taken (Logic.Parser.parse s) with
      | Ok { verdict = Hierarchy.Engine.Exact k; _ } ->
          Format.printf "  %-8s %-28s -> %s@." name s (Kappa.name k)
      | Ok _ | Error _ -> assert false)
    [ ("weak", weak); ("strong", strong) ];

  Format.printf "@.== An allocator that needs strong fairness ==@.";
  let check sys name =
    Format.printf "  %s:@." name;
    List.iter
      (fun s ->
        match Fts.Check.holds_s sys s with
        | Fts.Check.Holds -> Format.printf "    %-28s holds@." s
        | Fts.Check.Fails tr ->
            Format.printf "    %-28s FAILS@." s;
            Format.printf "      starving schedule:@.      %a@."
              (Fts.Check.pp_trace sys) tr)
      [ "[] (c1=1 -> <> c1=2)"; "[] (c2=1 -> <> c2=2)" ]
  in
  check (Fts.Models.allocator ~strong:false ()) "weak fairness on grants";
  check (Fts.Models.allocator ~strong:true ()) "strong fairness on grants";

  Format.printf "@.== Why: the grant transition is only intermittently enabled ==@.";
  Format.printf
    "  Weak fairness only forbids ignoring a continually enabled transition;@.";
  Format.printf
    "  the starving schedule disables grant1 infinitely often (free=0),@.";
  Format.printf
    "  so it is weakly fair.  Strong fairness ([]<>en -> []<>taken) closes@.";
  Format.printf "  the loophole -- at the cost of a higher class in the hierarchy.@."

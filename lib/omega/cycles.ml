exception Too_large of int

let is_cycle (a : Automaton.t) c =
  (not (Iset.is_empty c))
  &&
  let allowed q = Iset.mem q c in
  let succs_in q = List.filter allowed (Automaton.successors a q) in
  let reach_within from =
    (* reachable in >= 1 step within c *)
    let seen =
      Graph_kernel.reachable_in ~n:a.n ~succ:succs_in ~allowed
        ~starts:(succs_in from)
    in
    Iset.for_all (fun q -> seen.(q)) c
  in
  Iset.for_all reach_within c

(* Acceptance evaluated on a bitmask over the states of one SCC: atoms
   become masks (states outside the SCC cannot occur in a cycle of the
   SCC, so only the intersection matters). *)
type mask_acc =
  | MTrue
  | MFalse
  | MInf of int
  | MFin of int
  | MAnd of mask_acc list
  | MOr of mask_acc list

let rec mask_of_acc to_mask = function
  | Acceptance.True -> MTrue
  | Acceptance.False -> MFalse
  | Acceptance.Inf s -> MInf (to_mask s)
  | Acceptance.Fin s -> MFin (to_mask s)
  | Acceptance.And l -> MAnd (List.map (mask_of_acc to_mask) l)
  | Acceptance.Or l -> MOr (List.map (mask_of_acc to_mask) l)

let rec eval_mask acc m =
  match acc with
  | MTrue -> true
  | MFalse -> false
  | MInf s -> s land m <> 0
  | MFin s -> s land m = 0
  | MAnd l -> List.for_all (fun a -> eval_mask a m) l
  | MOr l -> List.exists (fun a -> eval_mask a m) l

(* Enumerate the cycles of one SCC already known to fit in [max_scc]:
   bitmask subset enumeration over the component's states, one budget
   tick per subset. *)
let scc_cycles budget telemetry (a : Automaton.t) comp size =
  let states = Array.of_list comp in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i q -> Hashtbl.add pos q i) states;
  (* successor bitmask of each SCC state, within the SCC *)
  let adj =
    Array.map
      (fun q ->
        List.fold_left
          (fun m q' ->
            match Hashtbl.find_opt pos q' with
            | Some i -> m lor (1 lsl i)
            | None -> m)
          0
          (Automaton.successors a q))
      states
  in
  let to_mask s =
    Iset.fold
      (fun q m ->
        match Hashtbl.find_opt pos q with
        | Some i -> m lor (1 lsl i)
        | None -> m)
      s 0
  in
  let macc = mask_of_acc to_mask a.acc in
  (* a subset is a cycle iff every member reaches every member in at
     least one step inside the subset *)
  let is_cycle_mask m =
    let ok = ref true in
    let i = ref 0 in
    let mm = ref m in
    while !ok && !mm <> 0 do
      if !mm land 1 <> 0 then begin
        (* BFS from the successors of state !i within m *)
        let seen = ref (adj.(!i) land m) in
        let frontier = ref !seen in
        while !frontier <> 0 do
          let next = ref 0 in
          let f = ref !frontier and j = ref 0 in
          while !f <> 0 do
            if !f land 1 <> 0 then next := !next lor (adj.(!j) land m);
            incr j;
            f := !f lsr 1
          done;
          frontier := !next land lnot !seen;
          seen := !seen lor !frontier
        done;
        if !seen land m <> m then ok := false
      end;
      incr i;
      mm := !mm lsr 1
    done;
    !ok
  in
  let out = ref [] in
  let full = (1 lsl size) - 1 in
  Telemetry.add telemetry "cycles.subsets" full;
  for m = 1 to full do
    Budget.tick budget;
    if is_cycle_mask m then begin
      let c = ref Iset.empty in
      for i = 0 to size - 1 do
        if m land (1 lsl i) <> 0 then c := Iset.add states.(i) !c
      done;
      out := (!c, eval_mask macc m) :: !out
    end
  done;
  Telemetry.add telemetry "cycles.found" (List.length !out);
  match !out with [] -> None | l -> Some l

let enumerate ?(budget = Budget.unlimited) ?(max_scc = 22)
    ?(telemetry = Telemetry.disabled) (a : Automaton.t) =
  Telemetry.span telemetry "cycles.enumerate" @@ fun () ->
  let reach = Automaton.reachable a in
  let comps = List.filter (fun comp -> reach.(List.hd comp)) (Automaton.sccs a) in
  Telemetry.add telemetry "cycles.sccs" (List.length comps);
  List.filter_map
    (fun comp ->
      Budget.tick budget;
      let size = List.length comp in
      Telemetry.observe telemetry "cycles.scc_size" (float_of_int size);
      if size > max_scc then raise (Too_large size);
      scc_cycles budget telemetry a comp size)
    comps

let accepting_family ?budget ?max_scc ?telemetry a =
  List.concat_map
    (fun group ->
      List.filter_map (fun (c, f) -> if f then Some c else None) group)
    (enumerate ?budget ?max_scc ?telemetry a)

(* Generic search for an accepting lasso in an explicit graph under an
   Emerson-Lei acceptance condition over node sets (same algorithm as
   Omega.Lang, node-based). *)

module Iset = Omega.Iset
module Acceptance = Omega.Acceptance

type t = { n : int; succ : int list array }

let sccs_within g allowed =
  Graph_kernel.sccs_region ~n:g.n ~succ:(fun q -> g.succ.(q)) allowed

let reachable g starts =
  Graph_kernel.reachable ~n:g.n ~succ:(fun q -> g.succ.(q)) ~starts

let path g ~ok src dst =
  if dst src then Some []
  else begin
    let parent = Hashtbl.create 64 in
    Hashtbl.add parent src None;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref None in
    (try
       while not (Queue.is_empty queue) do
         let v = Queue.pop queue in
         List.iter
           (fun w ->
             if ok w && not (Hashtbl.mem parent w) then begin
               Hashtbl.add parent w (Some v);
               if dst w then begin
                 found := Some w;
                 raise Exit
               end;
               Queue.add w queue
             end)
           g.succ.(v)
       done
     with Exit -> ());
    match !found with
    | None -> None
    | Some w ->
        let rec build v acc =
          match Hashtbl.find parent v with
          | None -> acc
          | Some p -> build p (v :: acc)
        in
        Some (build w [])
  end

(* Returns (prefix, cycle) as node lists: prefix leads from a start to
   the cycle's anchor (anchor excluded), cycle starts after the anchor
   and ends at the anchor. *)
let find_accepting_lasso g ~starts acc =
  let seen = reachable g starts in
  let candidate =
    List.find_map
      (fun (fin, infs) ->
        let allowed =
          Iset.init g.n (fun v -> seen.(v) && not (Iset.mem v fin))
        in
        List.find_map
          (fun comp ->
            let in_comp = Iset.of_list comp in
            let nontrivial =
              List.exists
                (fun v -> List.exists (fun w -> Iset.mem w in_comp) g.succ.(v))
                comp
            in
            if
              nontrivial
              && List.for_all
                   (fun inf -> List.exists (fun v -> Iset.mem v inf) comp)
                   infs
            then Some (in_comp, infs, comp)
            else None)
          (sccs_within g allowed))
      (Acceptance.dnf acc)
  in
  match candidate with
  | None -> None
  | Some (in_comp, infs, comp) ->
      let ok_all v = seen.(v) in
      let ok_comp v = Iset.mem v in_comp in
      let anchor = List.hd comp in
      (* the SCC was found among nodes reachable from [starts] and is
         strongly connected, so these searches cannot miss; if one does,
         the graph or SCC kernel broke an invariant — name the node
         rather than dying with a bare [Assert_failure] *)
      let internal_error what v =
        invalid_arg
          (Printf.sprintf
             "Graph.find_accepting_lasso: internal invariant broken: %s \
              (node %d, anchor %d)"
             what v anchor)
      in
      let prefix =
        (* try all starts for a path to the anchor *)
        let rec try_starts = function
          | [] -> internal_error "accepting SCC unreachable from any start" anchor
          | s :: rest -> (
              match path g ~ok:ok_all s (fun v -> v = anchor) with
              | Some p -> (s, p)
              | None -> try_starts rest)
        in
        try_starts starts
      in
      let reps =
        List.map
          (fun inf ->
            match List.find_opt (fun v -> Iset.mem v inf) comp with
            | Some v -> v
            | None -> internal_error "Inf set misses the chosen SCC" anchor)
          infs
      in
      let rec tour cur targets acc_path =
        match targets with
        | t :: rest -> (
            match path g ~ok:ok_comp cur (fun v -> v = t) with
            | Some p -> tour t rest (acc_path @ p)
            | None -> internal_error "representative unreachable within SCC" t)
        | [] -> (
            let back =
              List.find_map
                (fun w ->
                  if ok_comp w then
                    match path g ~ok:ok_comp w (fun v -> v = anchor) with
                    | Some p -> Some (w :: p)
                    | None -> None
                  else None)
                g.succ.(cur)
            in
            match back with
            | Some p -> acc_path @ p
            | None -> internal_error "no closing step back to anchor" cur)
      in
      let s0, pre = prefix in
      Some (s0, pre @ [], tour anchor reps [])

(* Moore partition refinement: the oracle for [Dfa.minimize]'s Hopcroft
   refinement.  A state's signature is its class followed by its
   successors' classes, and a round's new classes are the distinct
   signatures.  Rounds only split classes, so an unchanged class count
   means a stable partition; there is one round per distinguishable
   depth, so a chain of n states takes n rounds.  Classes are then
   renumbered canonically by BFS order from the start state, as
   [Dfa.minimize] numbers them: the two agree structurally. *)

open Finitary

module Signatures = Hashtbl.Make (struct
  type t = int array

  let equal (s : t) s' =
    let rec from i = i < 0 || (s.(i) = s'.(i) && from (i - 1)) in
    Array.length s = Array.length s' && from (Array.length s - 1)

  let hash s = Array.fold_left (fun h c -> (h * 31) + c) 0 s land max_int
end)

let minimize d =
  let d = Dfa.trim d in
  let k = Alphabet.size d.Dfa.alpha in
  let cls = Array.map (fun acc -> if acc then 1 else 0) d.accept in
  let classes =
    (if Array.mem true d.accept then 1 else 0)
    + if Array.mem false d.accept then 1 else 0
  in
  let key = Array.make (k + 1) 0 in
  let rec refine classes =
    let ids = Signatures.create classes in
    let next =
      Array.init d.n (fun q ->
          key.(0) <- cls.(q);
          Array.iteri (fun a q' -> key.(a + 1) <- cls.(q')) d.delta.(q);
          match Signatures.find_opt ids key with
          | Some c -> c
          | None ->
              let c = Signatures.length ids in
              Signatures.add ids (Array.copy key) c;
              c)
    in
    Array.blit next 0 cls 0 d.n;
    let classes' = Signatures.length ids in
    if classes' <> classes then refine classes' else classes
  in
  let m = refine classes in
  let rep = Array.make m 0 in
  Array.iteri (fun q c -> rep.(c) <- q) cls;
  let order = Array.make m (-1) and queue = Array.make m 0 in
  let tail = ref 1 in
  order.(cls.(d.start)) <- 0;
  queue.(0) <- cls.(d.start);
  for head = 0 to m - 1 do
    Array.iter
      (fun q' ->
        let c = cls.(q') in
        if order.(c) < 0 then begin
          order.(c) <- !tail;
          queue.(!tail) <- c;
          incr tail
        end)
      d.delta.(rep.(queue.(head)))
  done;
  let delta =
    Array.map
      (fun c -> Array.map (fun q' -> order.(cls.(q'))) d.delta.(rep.(c)))
      queue
  in
  let accept = Array.map (fun c -> d.accept.(rep.(c))) queue in
  Dfa.make ~alpha:d.alpha ~n:m ~start:0 ~delta ~accept

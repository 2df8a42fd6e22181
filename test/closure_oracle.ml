(* The safety-closure subset construction on sorted int lists: the
   oracle for [Fts.Check.closure_automaton].  It rebuilds the edge-split
   graph from [System]'s internal accessors with one successor list per
   split node, reads every atom of every split node through
   [System.atom_holds], concatenates the successors of every node of a
   subset and sorts each letter's bucket with [List.sort_uniq compare].
   It charges the budget the same ticks at the same points: the split
   graph's nodes and edges, the split-node count, one tick per fresh
   subset and [|s| + k] per expansion. *)

open Fts

(* Closure subsets are sorted lists of split-node ids.  [Hashtbl.hash]
   reads only the first ten elements of a list, so this table hashes
   every element. *)
module Subsets = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash l = List.fold_left (fun h x -> (h * 31) + x) 0 l land max_int
end)

let labels_of sys =
  Array.append [| "-" |] (System.internal_transition_names sys)

let atom_at sys labels state lab atom =
  if String.length atom > 6 && String.sub atom 0 6 = "taken_" then
    let tn = String.sub atom 6 (String.length atom - 6) in
    labels.(lab) = tn
  else System.atom_holds sys state atom

(* node [sid * n_labels + lab] is state [sid] entered by label [lab] *)
let split_graph ~budget sys n_labels =
  let n = Array.length (System.internal_states sys) * n_labels in
  Budget.ticks budget n;
  let succ = Array.make n [] in
  List.iter
    (fun (src, t, dst) ->
      Budget.tick budget;
      for lab = 0 to n_labels - 1 do
        let v = (src * n_labels) + lab in
        succ.(v) <- ((dst * n_labels) + t + 1) :: succ.(v)
      done)
    (System.internal_edges sys);
  (n, succ)

let closure_automaton ?(budget = Budget.unlimited) sys ~atoms =
  let atoms = List.sort_uniq compare atoms in
  if atoms = [] then invalid_arg "Closure_oracle: no atoms";
  let labels = labels_of sys in
  let n_labels = Array.length labels in
  let states = System.internal_states sys in
  let n_nodes, succ = split_graph ~budget sys n_labels in
  let alpha = Finitary.Alphabet.of_props atoms in
  let k = Finitary.Alphabet.size alpha in
  let indexed = List.mapi (fun i a -> (i, a)) atoms in
  let letter =
    Array.init n_nodes (fun v ->
        let sid = v / n_labels and lab = v mod n_labels in
        List.fold_left
          (fun acc (i, atom) ->
            if atom_at sys labels states.(sid) lab atom then acc lor (1 lsl i)
            else acc)
          0 indexed)
  in
  Budget.ticks budget n_nodes;
  (* Breadth-first subset construction.  DFA state 0 is the pre-initial
     state (no letter read yet); every other DFA state [id + 1] is the
     sorted subset of split nodes interned as [id]; the empty subset is
     the reject sink. *)
  let table = Subsets.create 64 in
  let grow = ref (Array.make 64 [||]) in
  let subs = ref (Array.make 64 []) in
  let ensure n =
    let cap = Array.length !grow in
    if n > cap then begin
      let cap' = max n (2 * cap) in
      let g = Array.make cap' [||] and s = Array.make cap' [] in
      Array.blit !grow 0 g 0 cap;
      Array.blit !subs 0 s 0 cap;
      grow := g;
      subs := s
    end
  in
  let intern s =
    match Subsets.find_opt table s with
    | Some id -> id + 1
    | None ->
        let id = Subsets.length table in
        Subsets.add table s id;
        ensure (id + 2);
        !subs.(id + 1) <- s;
        Budget.tick budget;
        id + 1
  in
  let bucketize vs =
    let buckets = Array.make k [] in
    List.iter (fun w -> buckets.(letter.(w)) <- w :: buckets.(letter.(w))) vs;
    Array.map (fun l -> intern (List.sort_uniq compare l)) buckets
  in
  let starts =
    List.map (fun sid -> sid * n_labels) (System.internal_init_ids sys)
  in
  (* interning can resize [grow], so deref it after the row is built *)
  let row0 = bucketize starts in
  !grow.(0) <- row0;
  let i = ref 1 in
  while !i <= Subsets.length table do
    let s = !subs.(!i) in
    Budget.ticks budget (List.length s + k);
    let row = bucketize (List.concat_map (fun v -> succ.(v)) s) in
    !grow.(!i) <- row;
    incr i
  done;
  let n = Subsets.length table + 1 in
  let delta = Array.init n (fun i -> !grow.(i)) in
  let acc =
    match Subsets.find_opt table [] with
    | Some sink -> Acceptance.Fin (Iset.add (sink + 1) Iset.empty)
    | None -> Acceptance.True
  in
  Omega.Automaton.make ~alpha ~n ~start:0 ~delta ~acc

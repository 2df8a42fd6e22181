type t =
  | True
  | False
  | Inf of Iset.t
  | Fin of Iset.t
  | And of t list
  | Or of t list

(* direct recursion over the lists allocates no closure per node: the
   on-the-fly search evaluates the condition on every closing edge *)
let rec eval_with ~meets acc run =
  match acc with
  | True -> true
  | False -> false
  | Inf s -> meets run s
  | Fin s -> not (meets run s)
  | And l -> all ~meets l run
  | Or l -> any ~meets l run

and all ~meets l run =
  match l with
  | [] -> true
  | a :: l -> eval_with ~meets a run && all ~meets l run

and any ~meets l run =
  match l with
  | [] -> false
  | a :: l -> eval_with ~meets a run || any ~meets l run

let eval acc inf_set =
  eval_with ~meets:(fun inf s -> not (Iset.disjoint s inf)) acc inf_set

let rec dual = function
  | True -> False
  | False -> True
  | Inf s -> Fin s
  | Fin s -> Inf s
  | And l -> Or (List.map dual l)
  | Or l -> And (List.map dual l)

let rec map_sets f = function
  | (True | False) as a -> a
  | Inf s -> Inf (f s)
  | Fin s -> Fin (f s)
  | And l -> And (List.map (map_sets f) l)
  | Or l -> Or (List.map (map_sets f) l)

let rec states = function
  | True | False -> Iset.empty
  | Inf s | Fin s -> s
  | And l | Or l ->
      List.fold_left (fun acc a -> Iset.union acc (states a)) Iset.empty l

let number_atoms ~first ~n acc =
  let atoms = ref [] in
  let mark s =
    let i =
      match List.find_opt (fun (_, s') -> Iset.equal s s') !atoms with
      | Some (i, _) -> i
      | None ->
          let i = first + List.length !atoms in
          atoms := (i, s) :: !atoms;
          i
    in
    Iset.singleton i
  in
  let acc = map_sets mark acc in
  let marks = Array.make n Iset.empty in
  List.iter
    (fun (i, s) -> Iset.iter (fun q -> marks.(q) <- Iset.add i marks.(q)) s)
    !atoms;
  (acc, marks, first + List.length !atoms)

let buchi r = Inf r

let complement_set ~n s =
  Iset.of_list (List.filter (fun q -> not (Iset.mem q s)) (List.init n Fun.id))

let co_buchi ~n p = Fin (complement_set ~n p)

let streett_pair ~n (r, p) = Or [ Inf r; Fin (complement_set ~n p) ]

let streett ~n pairs = And (List.map (streett_pair ~n) pairs)

let rabin ~n pairs =
  Or
    (List.map
       (fun (r, p) -> And [ Fin (complement_set ~n p); Inf r ])
       pairs)

let rec simplify = function
  | True -> True
  | False -> False
  | Inf s -> if Iset.is_empty s then False else Inf s
  | Fin s -> if Iset.is_empty s then True else Fin s
  | And l -> (
      let l =
        List.concat_map
          (fun a ->
            match simplify a with True -> [] | And l' -> l' | a -> [ a ])
          l
      in
      if List.mem False l then False
      else
        match List.sort_uniq Stdlib.compare l with
        | [] -> True
        | [ a ] -> a
        | l -> And l)
  | Or l -> (
      let l =
        List.concat_map
          (fun a ->
            match simplify a with False -> [] | Or l' -> l' | a -> [ a ])
          l
      in
      if List.mem True l then True
      else
        match List.sort_uniq Stdlib.compare l with
        | [] -> False
        | [ a ] -> a
        | l -> Or l)

let dnf acc =
  (* conjunct representation: accumulated Fin-union and Inf list *)
  let conj_and (f1, i1) (f2, i2) = (Iset.union f1 f2, i1 @ i2) in
  let rec go = function
    | True -> [ (Iset.empty, []) ]
    | False -> []
    | Inf s -> [ (Iset.empty, [ s ]) ]
    | Fin s -> [ (s, []) ]
    | Or l -> List.concat_map go l
    | And l ->
        List.fold_left
          (fun acc_disj a ->
            let da = go a in
            List.concat_map
              (fun c1 -> List.map (fun c2 -> conj_and c1 c2) da)
              acc_disj)
          [ (Iset.empty, []) ]
          l
  in
  go (simplify acc)

(* The CNF clauses are the DNF conjuncts of the dual condition,
   dualized back: the dual conjunct (Fin x /\ Inf y1 /\ ...) becomes the
   clause (Inf x \/ Fin y1 \/ ...). *)
let cnf acc = dnf (dual acc)

let to_streett_pairs ~n acc =
  List.map
    (fun (x, ys) ->
      match ys with
      | [] -> (x, Iset.empty)
      | [ y ] -> (x, complement_set ~n y)
      | _ :: _ :: _ ->
          invalid_arg
            "Acceptance.to_streett_pairs: a clause carries several Fin \
             atoms; the condition is not Streett-shaped")
    (cnf acc)

let rec pp ppf = function
  | True -> Fmt.string ppf "true"
  | False -> Fmt.string ppf "false"
  | Inf s -> Fmt.pf ppf "Inf%a" Iset.pp s
  | Fin s -> Fmt.pf ppf "Fin%a" Iset.pp s
  | And l -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " & ") pp) l
  | Or l -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any " | ") pp) l

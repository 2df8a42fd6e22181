type letter = int

type kind =
  | Symbolic
  | Propositional of string array (* proposition names, bit j of a letter *)

type t = {
  kind : kind;
  names : string array; (* per-letter display name *)
}

let check_distinct names =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun n ->
      if Hashtbl.mem tbl n then
        invalid_arg (Printf.sprintf "Alphabet: duplicate name %S" n);
      Hashtbl.add tbl n ())
    names

let of_names names =
  if names = [] then invalid_arg "Alphabet.of_names: empty alphabet";
  let names = Array.of_list names in
  check_distinct names;
  { kind = Symbolic; names }

let of_chars s =
  if String.length s = 0 then invalid_arg "Alphabet.of_chars: empty alphabet";
  of_names (List.init (String.length s) (fun i -> String.make 1 s.[i]))

let valuation_name props v =
  let set =
    Array.to_list props
    |> List.filteri (fun j _ -> v land (1 lsl j) <> 0)
  in
  "{" ^ String.concat "," set ^ "}"

let of_props props =
  if props = [] then invalid_arg "Alphabet.of_props: no propositions";
  if List.length props > 16 then invalid_arg "Alphabet.of_props: too many propositions";
  let props = Array.of_list props in
  check_distinct props;
  let n = 1 lsl Array.length props in
  let names = Array.init n (valuation_name props) in
  { kind = Propositional props; names }

let size a = Array.length a.names

let letters a = List.init (size a) Fun.id

let letter_name a l =
  if l < 0 || l >= size a then invalid_arg "Alphabet.letter_name";
  a.names.(l)

let find_name names n =
  let rec from i =
    if i = Array.length names then None
    else if String.equal names.(i) n then Some i
    else from (i + 1)
  in
  from 0

let letter_of_name_opt a n = find_name a.names n

let pp_names a =
  String.concat ", " (Array.to_list a.names)

let letter_of_name a n =
  match find_name a.names n with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Alphabet.letter_of_name: unknown letter %S (alphabet: %s)"
           n (pp_names a))

let prop_index props p = find_name props p

let holds a atom l =
  match a.kind with
  | Symbolic -> (
      match letter_of_name_opt a atom with
      | Some i -> i = l
      | None ->
          invalid_arg (Printf.sprintf "Alphabet.holds: unknown letter %S" atom))
  | Propositional props -> (
      match prop_index props atom with
      | Some j -> l land (1 lsl j) <> 0
      | None ->
          invalid_arg
            (Printf.sprintf "Alphabet.holds: unknown proposition %S" atom))

let truth a atom =
  match a.kind with
  | Symbolic -> (
      match letter_of_name_opt a atom with
      | Some i -> Array.init (size a) (fun l -> l = i)
      | None ->
          invalid_arg (Printf.sprintf "Alphabet.holds: unknown letter %S" atom))
  | Propositional props -> (
      match prop_index props atom with
      | Some j -> Array.init (size a) (fun l -> l land (1 lsl j) <> 0)
      | None ->
          invalid_arg
            (Printf.sprintf "Alphabet.holds: unknown proposition %S" atom))

let atoms a =
  match a.kind with
  | Symbolic -> Array.to_list a.names
  | Propositional props -> Array.to_list props

let equal a b =
  a.names = b.names
  &&
  match (a.kind, b.kind) with
  | Symbolic, Symbolic -> true
  | Propositional p, Propositional q -> p = q
  | Symbolic, Propositional _ | Propositional _, Symbolic -> false

let pp ppf a =
  Fmt.pf ppf "{%s}" (String.concat ", " (Array.to_list a.names))

let pp_letter a ppf l = Fmt.string ppf (letter_name a l)

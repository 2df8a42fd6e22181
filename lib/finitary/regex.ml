type t =
  | Empty
  | Eps
  | Letter of Alphabet.letter
  | Any
  | Alt of t * t
  | Seq of t * t
  | Star of t
  | Plus of t
  | Pow of t * int

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int; alpha : Alphabet.t }

let fail st msg =
  invalid_arg (Printf.sprintf "Regex.parse: %s at position %d in %S" msg st.pos st.src)

let rec skip_ws st =
  if st.pos < String.length st.src && st.src.[st.pos] = ' ' then begin
    st.pos <- st.pos + 1;
    skip_ws st
  end

let peek st =
  skip_ws st;
  if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let parse_int st =
  let start = st.pos in
  while
    st.pos < String.length st.src
    && st.src.[st.pos] >= '0'
    && st.src.[st.pos] <= '9'
  do
    advance st
  done;
  if st.pos = start then fail st "expected integer";
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some k -> k
  | None ->
      st.pos <- start;
      fail st "integer too large"

let rec parse_expr st =
  let t = parse_term st in
  match peek st with
  | Some '+' ->
      advance st;
      Alt (t, parse_expr st)
  | Some _ | None -> t

and parse_term st =
  let f = parse_factor st in
  match peek st with
  | Some c when c <> '+' && c <> ')' -> Seq (f, parse_term st)
  | Some _ | None -> f

and parse_factor st =
  let base = parse_base st in
  parse_postfix st base

and parse_postfix st base =
  match peek st with
  | Some '*' ->
      advance st;
      parse_postfix st (Star base)
  | Some '^' ->
      advance st;
      let wrapped =
        match peek st with
        | Some '*' ->
            advance st;
            Star base
        | Some '+' ->
            advance st;
            Plus base
        | Some c when c >= '0' && c <= '9' -> Pow (base, parse_int st)
        | Some _ | None -> fail st "expected *, + or integer after ^"
      in
      parse_postfix st wrapped
  | Some _ | None -> base

and parse_base st =
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '(' ->
      advance st;
      if peek st = Some ')' then begin
        advance st;
        Eps
      end
      else begin
        let e = parse_expr st in
        (match peek st with
        | Some ')' -> advance st
        | Some _ | None -> fail st "expected )");
        e
      end
  | Some '.' ->
      advance st;
      Any
  | Some _ ->
      let name, start = parse_letter_name st in
      (match Alphabet.letter_of_name_opt st.alpha name with
      | Some l -> Letter l
      | None ->
          st.pos <- start;
          fail st (Printf.sprintf "unknown letter %S" name))

(* A letter token: a single character, a ['...'] or ["..."] quoted
   multi-character name, or a brace-delimited name such as [{p,q}]
   (braces included — the display names of propositional letters).
   Returns the name and the token's start position for error
   reporting. *)
and parse_letter_name st =
  skip_ws st;
  let start = st.pos in
  let len = String.length st.src in
  match st.src.[st.pos] with
  | ('\'' | '"') as q ->
      advance st;
      let b = Buffer.create 8 in
      let rec scan () =
        if st.pos >= len then begin
          st.pos <- start;
          fail st (Printf.sprintf "unterminated %c-quoted letter name" q)
        end
        else if st.src.[st.pos] = q then advance st
        else begin
          Buffer.add_char b st.src.[st.pos];
          advance st;
          scan ()
        end
      in
      scan ();
      (Buffer.contents b, start)
  | '{' ->
      let b = Buffer.create 8 in
      let rec scan () =
        if st.pos >= len then begin
          st.pos <- start;
          fail st "unterminated {...} letter name"
        end
        else begin
          let c = st.src.[st.pos] in
          Buffer.add_char b c;
          advance st;
          if c <> '}' then scan ()
        end
      in
      scan ();
      (Buffer.contents b, start)
  | c ->
      advance st;
      (String.make 1 c, start)

let parse alpha src =
  let st = { src; pos = 0; alpha } in
  let e = parse_expr st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing input";
  e

(* ------------------------------------------------------------------ *)
(* Compilation (Thompson construction)                                *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable next : int;
  mutable trans : (int * Alphabet.letter * int) list;
  mutable epsilons : (int * int) list;
}

let fresh b =
  let q = b.next in
  b.next <- q + 1;
  q

(* Returns (entry, exit) fragment with a single entry and a single exit. *)
let rec fragment alpha b = function
  | Empty ->
      let i = fresh b and f = fresh b in
      (i, f)
  | Eps ->
      let i = fresh b and f = fresh b in
      b.epsilons <- (i, f) :: b.epsilons;
      (i, f)
  | Letter l ->
      let i = fresh b and f = fresh b in
      b.trans <- (i, l, f) :: b.trans;
      (i, f)
  | Any ->
      let i = fresh b and f = fresh b in
      List.iter
        (fun l -> b.trans <- (i, l, f) :: b.trans)
        (Alphabet.letters alpha);
      (i, f)
  | Alt (e1, e2) ->
      let i = fresh b and f = fresh b in
      let i1, f1 = fragment alpha b e1 in
      let i2, f2 = fragment alpha b e2 in
      b.epsilons <- (i, i1) :: (i, i2) :: (f1, f) :: (f2, f) :: b.epsilons;
      (i, f)
  | Seq (e1, e2) ->
      let i1, f1 = fragment alpha b e1 in
      let i2, f2 = fragment alpha b e2 in
      b.epsilons <- (f1, i2) :: b.epsilons;
      (i1, f2)
  | Star e ->
      let i = fresh b and f = fresh b in
      let i1, f1 = fragment alpha b e in
      b.epsilons <- (i, i1) :: (i, f) :: (f1, i1) :: (f1, f) :: b.epsilons;
      (i, f)
  | Plus e -> fragment alpha b (Seq (e, Star e))
  | Pow (e, k) ->
      if k < 0 then invalid_arg "Regex: negative power";
      let rec expand k = if k = 0 then Eps else Seq (e, expand (k - 1)) in
      fragment alpha b (expand k)

(* Saturating, so that a huge power reads as [max_int]. *)
let ( +! ) a b = if a > max_int - b then max_int else a + b
let ( *! ) a b = if a <> 0 && b > max_int / a then max_int else a * b

(* The states [fragment] allocates, case by case. *)
let rec size = function
  | Empty | Eps | Letter _ | Any -> 2
  | Alt (e1, e2) -> 2 +! size e1 +! size e2
  | Seq (e1, e2) -> size e1 +! size e2
  | Star e -> 2 +! size e
  | Plus e ->
      let s = size e in
      s +! s +! 2
  | Pow (e, k) -> (max k 0 *! size e) +! 2

let to_nfa alpha e =
  let b = { next = 0; trans = []; epsilons = [] } in
  let i, f = fragment alpha b e in
  Nfa.make ~alpha ~n:b.next ~starts:[ i ] ~delta:b.trans ~eps:b.epsilons
    ~accept:[ f ]

let to_dfa alpha e = Dfa.minimize (Nfa.determinize (to_nfa alpha e))

let compile alpha s = to_dfa alpha (parse alpha s)

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let rec pp alpha ppf = function
  | Empty -> Fmt.string ppf "∅"
  | Eps -> Fmt.string ppf "()"
  | Letter l -> Fmt.string ppf (Alphabet.letter_name alpha l)
  | Any -> Fmt.string ppf "."
  | Alt (e1, e2) -> Fmt.pf ppf "%a + %a" (pp alpha) e1 (pp alpha) e2
  | Seq (e1, e2) -> Fmt.pf ppf "%a%a" (pp_atom alpha) e1 (pp_atom alpha) e2
  | Star e -> Fmt.pf ppf "%a*" (pp_atom alpha) e
  | Plus e -> Fmt.pf ppf "%a^+" (pp_atom alpha) e
  | Pow (e, k) -> Fmt.pf ppf "%a^%d" (pp_atom alpha) e k

and pp_atom alpha ppf = function
  | (Empty | Eps | Letter _ | Any) as e -> pp alpha ppf e
  | (Alt _ | Seq _ | Star _ | Plus _ | Pow _) as e ->
      Fmt.pf ppf "(%a)" (pp alpha) e

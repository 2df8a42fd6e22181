open Formula

type token =
  | TTrue
  | TFalse
  | TFirst
  | TAtom of string
  | TNot
  | TAnd
  | TOr
  | TImp
  | TIff
  | TNext
  | TUntil
  | TWuntil
  | TEv
  | TAlw
  | TPrev
  | TWprev
  | TSince
  | TWsince
  | TOnce
  | THist
  | TLpar
  | TRpar
  | TEnd

let is_ident_start c = (c >= 'a' && c <= 'z') || c = '_'

let is_ident c =
  is_ident_start c || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

(* Each token carries its byte extent [start, stop) in the source, so
   the parser can attribute a source span to every subformula. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let pos = ref 0 in
  let fail msg =
    invalid_arg (Printf.sprintf "Parser: %s at position %d in %S" msg !pos src)
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' then incr pos
    else begin
      let start = !pos in
      (* record the extent only on success; [fail] fires with [pos]
         still at the offending character *)
      let push t = toks := (t, start, !pos) :: !toks in
      if c = '(' then begin
        incr pos;
        push TLpar
      end
      else if c = ')' then begin
        incr pos;
        push TRpar
      end
      else if c = '!' then begin
        incr pos;
        push TNot
      end
      else if c = '&' then begin
        incr pos;
        push TAnd
      end
      else if c = '|' then begin
        incr pos;
        push TOr
      end
      else if c = '[' then
        if !pos + 1 < n && src.[!pos + 1] = ']' then begin
          pos := !pos + 2;
          push TAlw
        end
        else fail "expected []"
      else if c = '-' then
        if !pos + 1 < n && src.[!pos + 1] = '>' then begin
          pos := !pos + 2;
          push TImp
        end
        else fail "expected ->"
      else if c = '<' then
        if !pos + 2 < n && src.[!pos + 1] = '-' && src.[!pos + 2] = '>' then begin
          pos := !pos + 3;
          push TIff
        end
        else if !pos + 1 < n && src.[!pos + 1] = '>' then begin
          pos := !pos + 2;
          push TEv
        end
        else fail "expected <> or <->"
      else if c >= 'A' && c <= 'Z' then begin
        let t =
          match c with
          | 'X' -> TNext
          | 'U' -> TUntil
          | 'W' -> TWuntil
          | 'Y' -> TPrev
          | 'Z' -> TWprev
          | 'S' -> TSince
          | 'B' -> TWsince
          | 'O' -> TOnce
          | 'H' -> THist
          | _ -> fail (Printf.sprintf "unknown operator %c" c)
        in
        incr pos;
        push t
      end
      else if is_ident_start c then begin
        while !pos < n && is_ident src.[!pos] do
          incr pos
        done;
        (* an atom may carry a value test: "pc1=2" *)
        if
          !pos + 1 < n
          && src.[!pos] = '='
          && src.[!pos + 1] >= '0'
          && src.[!pos + 1] <= '9'
        then begin
          incr pos;
          while !pos < n && src.[!pos] >= '0' && src.[!pos] <= '9' do
            incr pos
          done
        end;
        match String.sub src start (!pos - start) with
        | "true" -> push TTrue
        | "false" -> push TFalse
        | "first" -> push TFirst
        | id -> push (TAtom id)
      end
      else fail (Printf.sprintf "unexpected character %c" c)
    end
  done;
  let all = Array.of_list (List.rev ((TEnd, n, n) :: !toks)) in
  ( Array.map (fun (t, _, _) -> t) all,
    Array.map (fun (_, s, _) -> s) all,
    Array.map (fun (_, _, e) -> e) all )

type span = { start : int; stop : int }

type spanned = { f : Formula.t; span : span; children : spanned list }

type stream = {
  toks : token array;
  starts : int array;
  stops : int array;
  mutable i : int;
  mutable depth : int;  (* nested operands being parsed *)
  src : string;
}

let peek st = st.toks.(st.i)

let advance st = st.i <- st.i + 1

let cur_start st = st.starts.(st.i)

(* Extent of the node parsed so far: from [start] to the end of the
   last consumed token. *)
let mk st start f children =
  { f; span = { start; stop = st.stops.(st.i - 1) }; children }

let fail st msg =
  invalid_arg
    (Printf.sprintf "Parser: %s at position %d in %S" msg (cur_start st)
       st.src)

(* Each operand nests one recursive call; past [max_depth] the input is
   refused, so no input can exhaust the stack. *)
let max_depth = 10_000

let nested st parse =
  if st.depth >= max_depth then
    fail st (Printf.sprintf "nesting deeper than %d" max_depth);
  st.depth <- st.depth + 1;
  let r = parse st in
  st.depth <- st.depth - 1;
  r

(* iff <- imp ('<->' iff)?        (right assoc)
   imp <- or ('->' imp)?
   or  <- and ('|' or)?
   and <- tl ('&' and)?
   tl  <- unary (('U'|'W'|'S'|'B') tl)?
   unary <- ('!'|'X'|'<>'|'[]'|'Y'|'Z'|'O'|'H') unary | atom | '(' iff ')' *)
let rec parse_iff st =
  let start = cur_start st in
  let a = parse_imp st in
  if peek st = TIff then begin
    advance st;
    let b = nested st parse_iff in
    mk st start (Iff (a.f, b.f)) [ a; b ]
  end
  else a

and parse_imp st =
  let start = cur_start st in
  let a = parse_or st in
  if peek st = TImp then begin
    advance st;
    let b = nested st parse_imp in
    mk st start (Imp (a.f, b.f)) [ a; b ]
  end
  else a

and parse_or st =
  let start = cur_start st in
  let a = parse_and st in
  if peek st = TOr then begin
    advance st;
    let b = nested st parse_or in
    mk st start (Or (a.f, b.f)) [ a; b ]
  end
  else a

and parse_and st =
  let start = cur_start st in
  let a = parse_tl st in
  if peek st = TAnd then begin
    advance st;
    let b = nested st parse_and in
    mk st start (And (a.f, b.f)) [ a; b ]
  end
  else a

and parse_tl st =
  let start = cur_start st in
  let a = parse_unary st in
  let binary op =
    advance st;
    let b = nested st parse_tl in
    mk st start (op a.f b.f) [ a; b ]
  in
  match peek st with
  | TUntil -> binary (fun f g -> Until (f, g))
  | TWuntil -> binary (fun f g -> Wuntil (f, g))
  | TSince -> binary (fun f g -> Since (f, g))
  | TWsince -> binary (fun f g -> Wsince (f, g))
  | TTrue | TFalse | TFirst | TAtom _ | TNot | TAnd | TOr | TImp | TIff | TNext
  | TEv | TAlw | TPrev | TWprev | TOnce | THist | TLpar | TRpar | TEnd ->
      a

and parse_unary st =
  let start = cur_start st in
  let unary op =
    advance st;
    let g = nested st parse_unary in
    mk st start (op g.f) [ g ]
  in
  let leaf f =
    advance st;
    mk st start f []
  in
  match peek st with
  | TNot -> unary (fun f -> Not f)
  | TNext -> unary (fun f -> Next f)
  | TEv -> unary (fun f -> Ev f)
  | TAlw -> unary (fun f -> Alw f)
  | TPrev -> unary (fun f -> Prev f)
  | TWprev -> unary (fun f -> Wprev f)
  | TOnce -> unary (fun f -> Once f)
  | THist -> unary (fun f -> Hist f)
  | TTrue -> leaf True
  | TFalse -> leaf False
  | TFirst -> leaf first
  | TAtom a -> leaf (Atom a)
  | TLpar ->
      advance st;
      let inner = nested st parse_iff in
      if peek st <> TRpar then fail st "expected )";
      advance st;
      (* widen to include the parentheses; the tree below is unchanged *)
      { inner with span = { start; stop = st.stops.(st.i - 1) } }
  | TUntil | TWuntil | TSince | TWsince | TAnd | TOr | TImp | TIff | TRpar
  | TEnd ->
      fail st "expected a formula"

let parse_spanned src =
  let toks, starts, stops = tokenize src in
  let st = { toks; starts; stops; i = 0; depth = 0; src } in
  let f = parse_iff st in
  if peek st <> TEnd then fail st "trailing input";
  f

let parse src = (parse_spanned src).f

let text src { start; stop } = String.sub src start (stop - start)

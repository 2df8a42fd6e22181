(** Parser for the concrete LTL syntax produced by {!Formula.to_string}.

    Tokens:
    - atoms: lowercase identifiers ([p], [in_c1], ...); [true], [false]
      and [first] are keywords;
    - boolean: [!] [&] [|] [->] [<->];
    - future: [X] (next), [U] (until), [W] (unless), [<>] (eventually),
      [[]] (henceforth);
    - past: [Y] (previous), [Z] (weak previous), [S] (since), [B] (weak
      since), [O] (once), [H] (historically).

    Precedence, loosest to tightest: [<->], [->] (right associative),
    [|], [&], binary temporal ([U W S B], right associative), unary.

    Example: ["[] (p -> <> q)"] is the paper's response formula. *)

(** Raises [Invalid_argument] on syntax errors, and on operands nested
    more than 10,000 deep (so no input exhausts the stack).  The message
    starts with ["Parser: "] and names the byte position of the
    offending token.  It raises nothing else, on any input. *)
val parse : string -> Formula.t

(** {2 Position-tracking mode}

    {!parse_spanned} accepts exactly the language of {!parse} (and fails
    with the identical messages) but additionally attributes to every
    subformula its byte extent in the source string, so diagnostics can
    point at the offending subterm rather than the whole requirement. *)

(** Byte extent [start, stop) in the source string.  A parenthesized
    subformula's span includes the parentheses. *)
type span = { start : int; stop : int }

(** A formula together with its span and its immediate subterms.
    [f] is the complete formula of the node; [children] are the operand
    nodes in source order (empty for atoms, constants, and the [first]
    keyword, which parses as a leaf). *)
type spanned = { f : Formula.t; span : span; children : spanned list }

val parse_spanned : string -> spanned

(** [text src span] is the source slice the span covers. *)
val text : string -> span -> string

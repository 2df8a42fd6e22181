(* Seeded input generators.

   Each generator draws from two random states.  The structure state
   [s] is made from a constant and draws every structural choice:
   shapes, payload operators, alphabet sizes, which atom slots share an
   atom, and the order of the inputs.  The seeded state [a] renames the
   atoms of each formula.  A classify run spends about three quarters of
   its time in the few two-shape formulas that hit the uniform-liveness
   defect (see perfbench/README.md), and whether a formula does depends
   on which of its atoms coincide; drawing that from --seed made 3000
   formulas take 1.8 s to 3.1 s across eight seeds.  With the structure
   fixed, every seed runs the same work on different formula texts. *)

type rng = { s : Random.State.t; a : Random.State.t }

let rng ~salt seed =
  { s = Random.State.make [| 0x4851; salt |]; a = Random.State.make [| seed; salt |] }

let pick st a = a.(Random.State.int st (Array.length a))
let paren s = "(" ^ s ^ ")"

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let permuted r atoms = Array.of_list (shuffle r.a (Array.to_list atoms))

(* A pure-past payload with at most one past operator over state atoms,
   which the caller has renamed with [permuted].  Deeper nesting is not
   drawn: a two-shape formula over [Y (Y r)] already exhausts a 2 GB
   address space inside Lang.is_uniform_liveness. *)
let past r atoms =
  let x () = pick r.s atoms in
  match Random.State.int r.s 8 with
  | 0 -> x ()
  | 1 -> "!" ^ x ()
  | 2 -> "Y " ^ x ()
  | 3 -> "O " ^ x ()
  | 4 -> "H " ^ x ()
  | 5 -> x () ^ " S " ^ x ()
  | 6 -> x () ^ " & " ^ x ()
  | _ -> x () ^ " | " ^ x ()

(* The requirement shapes of examples/specs/, each with the number of
   modal shapes it contributes. *)
let shapes =
  [|
    (1, fun a _ -> "[] " ^ a);  (* invariance *)
    (1, fun a _ -> "<> " ^ a);  (* guarantee *)
    (2, fun a b -> "[] " ^ a ^ " | <> " ^ b);  (* obligation *)
    (1, fun a b -> "[] (" ^ a ^ " -> <> " ^ b ^ ")");  (* response *)
    (1, fun a _ -> "[]<> " ^ a);  (* recurrence *)
    (1, fun a _ -> "<>[] " ^ a);  (* persistence *)
    (2, fun a b -> "[]<> " ^ a ^ " -> []<> " ^ b);  (* fairness implication *)
    (1, fun a b -> "[] (" ^ a ^ " -> " ^ a ^ " W " ^ b ^ ")");  (* unless *)
    (1, fun a b -> a ^ " U " ^ b);  (* until *)
    (2, fun a b -> "[]<> " ^ a ^ " | <>[] " ^ b);  (* reactivity disjunction *)
  |]

let shape r atoms =
  let k, f = pick r.s shapes in
  let a = paren (past r atoms) in
  let b = paren (past r atoms) in
  (k, f a b)

let one_shape r atoms =
  let rec go () =
    let k, f = shape r atoms in
    if k = 1 then f else go ()
  in
  go ()

(* At most two modal shapes: a single shape, or a conjunction or
   disjunction of two one-shape formulas.  Three or more are never
   drawn: Lang.is_uniform_liveness expands an m-conjunct acceptance
   condition without ticking its budget, so a three-shape disjunction
   runs for tens of seconds or runs out of memory. *)
let formula r atoms =
  let k, f = shape r atoms in
  if k = 1 && Random.State.int r.s 3 = 0 then
    paren f ^ (if Random.State.bool r.s then " & " else " | ")
    ^ paren (one_shape r atoms)
  else f

(* ------------------------------------------------------------------ *)
(* classify                                                            *)
(* ------------------------------------------------------------------ *)

type query = { props : string; text : string; expect : Kappa.t option }

(* E10 of EXPERIMENTS.md: the responsiveness ladder, five formulas
   with their known classes. *)
let ladder =
  [
    ("p -> <> q", Kappa.Guarantee);
    ("<> p -> <> (q & O p)", Kappa.Obligation 1);
    ("[] (p -> <> q)", Kappa.Recurrence);
    ("p -> <>[] q", Kappa.Persistence);
    ("[]<> p -> []<> q", Kappa.Reactivity 1);
  ]

let classify_queries ~seed n =
  let r = rng ~salt:1 seed in
  let drawn =
    List.init n (fun _ ->
        let atoms =
          if Random.State.bool r.s then [| "p"; "q" |] else [| "p"; "q"; "r" |]
        in
        {
          props = String.concat "," (Array.to_list atoms);
          text = formula r (permuted r atoms);
          expect = None;
        })
  in
  let paper =
    List.map (fun (text, k) -> { props = "p,q"; text; expect = Some k }) ladder
  in
  paper @ drawn

(* ------------------------------------------------------------------ *)
(* spec                                                                *)
(* ------------------------------------------------------------------ *)

let requirements r atoms n =
  List.init n (fun i -> (Printf.sprintf "r%d" (i + 1), one_shape r atoms))

(* Specifications of 2-6 one-shape requirements over p, q, r. *)
let lint_specs ~seed n =
  let r = rng ~salt:2 seed in
  List.init n (fun _ ->
      requirements r (permuted r [| "p"; "q"; "r" |]) (2 + Random.State.int r.s 5))

(* The Fts.Models families at small sizes, each with the state atoms
   generated requirements may mention. *)
let model_families =
  let vals v lo hi = List.init (hi - lo + 1) (fun i -> Printf.sprintf "%s=%d" v (lo + i)) in
  [|
    ( "peterson",
      (fun _ -> Fts.Models.peterson ()),
      vals "pc1" 0 2 @ vals "pc2" 0 2 @ [ "turn=1"; "flag1=1" ] );
    ( "do-nothing",
      (fun _ -> Fts.Models.mutex_do_nothing ()),
      vals "pc1" 0 2 @ vals "pc2" 0 2 );
    ( "allocator",
      (fun n -> Fts.Models.allocator ~strong:(n mod 2 = 0) ()),
      vals "c1" 0 2 @ vals "c2" 0 2 @ [ "free=1" ] );
    ( "philosophers",
      (fun n -> Fts.Models.philosophers ~lefty:(n mod 2 = 0) ()),
      vals "pc0" 0 3 @ [ "fork0=1"; "fork1=1" ] );
    ( "countdown",
      (fun n -> Fts.Models.countdown ~n ()),
      [ "x=0"; "x=1"; "done_=1"; "done_=0" ] );
  |]

type model_query = {
  mname : string;
  model : unit -> Fts.System.t;
  specs : (string * string) list;
}

let model_queries ~seed n =
  let r = rng ~salt:3 seed in
  List.init n (fun _ ->
      let name, mk, atoms = pick r.s model_families in
      let size = 5 + Random.State.int r.s 40 in
      {
        mname = Printf.sprintf "%s/%d" name size;
        model = (fun () -> mk size);
        (* renaming model atoms is no isomorphism, so they stay fixed *)
        specs = requirements r (Array.of_list atoms) (1 + Random.State.int r.s 3);
      })

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

type request =
  | Classify of { props : string; formula : string; fuel : int option }
  | Lint of (string * string) list
  | Equiv of { props : string; f1 : string; f2 : string }
  | Malformed of string

(* A pool of requests, some of them equal: one-shape classify queries (a
   tenth of the pool at low fuel, so degraded answers queue background
   refinement), small lint specs, equivalence checks, and a tenth
   malformed frames. *)
let serve_pool ~seed n =
  let r = rng ~salt:4 seed in
  let pq () = permuted r [| "p"; "q" |] in
  let garbage =
    [| "{\"op\":"; "not json"; "{\"op\":\"nosuch\"}"; "[1,2,3]"; "{\"op\":\"classify\"}"; "{\"id\":1,\"op\":\"classify\",\"formula\":\"[] (p\"}" |]
  in
  List.init n (fun _ ->
      match Random.State.int r.s 10 with
      | 0 -> Malformed (pick r.s garbage)
      | 1 -> Lint (requirements r (pq ()) (2 + Random.State.int r.s 2))
      | 2 -> Equiv { props = "p,q"; f1 = one_shape r (pq ()); f2 = one_shape r (pq ()) }
      | 3 -> Classify { props = "p,q"; formula = one_shape r (pq ()); fuel = Some 20 }
      | _ -> Classify { props = "p,q"; formula = one_shape r (pq ()); fuel = None })

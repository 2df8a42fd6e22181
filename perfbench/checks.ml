(* Checks on every answer.  A check returns [None] when the answer
   passes and [Some reason] when it does not; the caller counts the
   failure against ok_share and prints the input with the reason. *)

open Hierarchy

let fail fmt = Printf.ksprintf (fun s -> Some s) fmt

let first_failure checks =
  List.fold_left (fun acc c -> match acc with Some _ -> acc | None -> c ()) None checks

(* Figure 1: a property in a class is in every class above it. *)
let row_monotone row =
  List.find_map
    (fun (c, b) ->
      if b <> Some true then None
      else
        List.find_map
          (fun (c', b') ->
            if Kappa.leq c c' && b' = Some false then
              fail "row says %s but not %s" (Kappa.name c) (Kappa.name c')
            else None)
          row)
    row

let exact_in_row k row =
  List.find_map
    (fun (c, b) ->
      if Kappa.leq k c && b = Some false then
        fail "class %s but row excludes %s" (Kappa.name k) (Kappa.name c)
      else None)
    row

(* Logic.Shape's bound is sound up to one documented exception: a
   clopen property written in guarantee shape reads back as safety
   (both memberships hold, and the classifier prefers safety). *)
let within_shape k syntactic =
  match syntactic with
  | None -> None
  | Some u ->
      if Kappa.leq k u || (k = Kappa.Safety && Kappa.leq Kappa.Guarantee u) then None
      else fail "class %s outside the syntactic bound %s" (Kappa.name k) (Kappa.name u)

let expected expect exact =
  match (expect, exact) with
  | Some e, Some k when Kappa.equal e k -> None
  | Some e, _ -> fail "expected exactly %s" (Kappa.name e)
  | None, _ -> None

(* A verdict and its membership row, with the class the paper gives
   when there is one. *)
let verdict ?expect exact row =
  first_failure
    [
      (fun () -> row_monotone row);
      (fun () -> Option.bind exact (fun k -> exact_in_row k row));
      (fun () -> expected expect exact);
    ]

let report ?expect (r : Engine.report) =
  let exact = match r.Engine.verdict with Engine.Exact k -> Some k | _ -> None in
  first_failure
    [
      (fun () -> verdict ?expect exact r.Engine.memberships);
      (fun () -> Option.bind exact (fun k -> within_shape k r.Engine.syntactic));
      (fun () ->
        if r.Engine.is_uniform_liveness = Some true && r.Engine.is_liveness = Some false
        then fail "uniformly live but not live"
        else None);
    ]

let say_failure ~input reason =
  Printf.eprintf "check failed: %s\n  input: %s\n%!" reason input

(* An explicit graph searched for a lasso whose cycle satisfies an
   Emerson-Lei condition over node sets, by {!Emptiness}. *)

type t = { n : int; succ : int list array }

let succ g v = g.succ.(v)

(* A cycle reachable from [starts] whose node set satisfies [acc]. *)
let accepting_scc ?budget g ~starts acc =
  let seen = Graph_kernel.reachable ~n:g.n ~succ:(succ g) ~starts in
  Emptiness.accepting_scc ?budget ~n:g.n ~succ:(succ g) acc
    (Iset.init g.n (Array.get seen))

(* Returns (prefix, cycle) as node lists: prefix leads from a start to
   the cycle's anchor (both included), cycle starts after the anchor
   and ends at it. *)
let find_accepting_lasso ?budget g ~starts acc =
  Option.map
    (Emptiness.lasso ~succ:(succ g) ~starts acc)
    (accepting_scc ?budget g ~starts acc)

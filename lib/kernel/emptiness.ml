let rec first_fin = function
  | Acceptance.Fin x -> Some x
  | And l | Or l -> List.find_map first_fin l
  | True | False | Inf _ -> None

let rec fin_false x = function
  | Acceptance.Fin y when Iset.equal x y -> Acceptance.False
  | And l -> And (List.map (fin_false x) l)
  | Or l -> Or (List.map (fin_false x) l)
  | acc -> acc

let restrict acc s = Acceptance.simplify (Acceptance.map_sets (Iset.inter s) acc)

(* The cycle-carrying SCCs of the subgraph induced on [region], at a
   cost proportional to [region]: the recursion splits one SCC at a
   time.  A singleton of the region carries a cycle iff it has a
   self-loop, which stays inside it.  Each becomes a set only when the
   search reaches it, as a search that stops at the first of many
   singletons must not pay for the rest. *)
let cycle_sccs ~n ~succ region =
  List.filter (Graph_kernel.nontrivial ~succ)
    (Graph_kernel.sccs_region ~n ~succ region)

(* On a cycle [s] that [acc] rejects: [acc] restricted to [s] and the
   [Fin X] to split on, or [None] when no cycle inside [s] satisfies
   [acc] — a [Fin]-free condition is monotone, so [s] failing it
   decides.  An infinity set inside [s] avoiding X lives in an SCC of
   s∖X; one meeting X falsifies [Fin X] and stays on [s].  Restricting
   is exact on the subsets of [s], and setting a [Fin] atom false only
   strengthens a positive condition, so a cycle that satisfies what
   the recursion carries satisfies the caller's condition. *)
let split acc s =
  if Option.is_none (first_fin acc) then None
  else
    let acc = restrict acc s in
    Option.map (fun x -> (acc, x)) (first_fin acc)

(* The caller's region is no SCC, so it is searched once without the
   condition's first [Fin] set X before it is decomposed whole: a cycle
   avoiding X lies in an SCC of region∖X, and one meeting X satisfies
   the condition with [Fin X] false.  On the inclusion engine's pair
   graph the first decomposition is the largest cost, and region∖X
   usually already decides.  Below this point each SCC is decomposed
   first. *)
let top_split acc region =
  let acc = Acceptance.simplify acc in
  match first_fin acc with
  | None -> [ (acc, region) ]
  | Some x ->
      [
        (acc, Iset.diff region x);
        (Acceptance.simplify (fin_false x acc), region);
      ]

let accepting_scc ?(budget = Budget.unlimited) ~n ~succ acc region =
  let rec within acc region =
    List.find_map
      (fun c -> search acc (Iset.of_list c))
      (cycle_sccs ~n ~succ region)
  and search acc s =
    Budget.check budget;
    if Acceptance.eval acc s then Some s
    else
      Option.bind (split acc s) (fun (acc, x) ->
          match within acc (Iset.diff s x) with
          | None -> search (fin_false x acc) s
          | found -> found)
  in
  List.find_map
    (function Acceptance.False, _ -> None | acc, region -> within acc region)
    (top_split acc region)

(* [Acceptance.eval] on the states of a list, without building their
   set: an SCC that satisfies the condition never needs one. *)
let rec meets c x =
  match c with [] -> false | q :: c -> Iset.mem q x || meets c x

let holds_on acc c = Acceptance.eval_with ~meets acc c

(* A cycle satisfying the condition puts all its states on an
   accepting cycle.  The states found so far are flags in one byte
   string, so marking an SCC costs its size, not a copy of the whole
   set; a cycle they cover has nothing left to add.  The result set is
   built once. *)
let accepting_states ?(budget = Budget.unlimited) ~n ~succ acc region =
  let good = Bytes.make n '\000' in
  let rec covered = function
    | [] -> true
    | q :: c -> Bytes.get good q <> '\000' && covered c
  in
  let rec mark = function
    | [] -> ()
    | q :: c ->
        Bytes.set good q '\001';
        mark c
  in
  let rec within acc region =
    List.iter
      (fun c -> if not (covered c) then collect acc c None)
      (cycle_sccs ~n ~succ region)
  and collect acc c s =
    Budget.tick budget;
    if holds_on acc c then mark c
    else
      let s = match s with Some s -> s | None -> Iset.of_list c in
      match split acc s with
      | None -> ()
      | Some (acc, x) ->
          within acc (Iset.diff s x);
          if not (covered c) then collect (fin_false x acc) c (Some s)
  in
  List.iter
    (function Acceptance.False, _ -> () | acc, region -> within acc region)
    (top_split acc region);
  Iset.init n (fun q -> Bytes.get good q <> '\000')

(* The split yields two families: [r1], from the SCCs of s∖X (members
   of different SCCs are disjoint, so only [r2] can subsume them), and
   [r2], from [s] with [Fin X] false.  Every accepting cycle inside [s]
   lies under a member of one of them, so dropping the members strictly
   below another member of the other family (and one of two equal
   members) keeps that cover and leaves exactly the maximal accepting
   cycles. *)
let maximal_accepting_cycles ?(budget = Budget.unlimited) ~n ~succ acc s =
  let merge r1 r2 =
    match (r1, r2) with
    | [], r | r, [] -> r
    | _ ->
        let strictly_below c d = Iset.subset c d && not (Iset.equal c d) in
        List.filter (fun c -> not (List.exists (Iset.subset c) r2)) r1
        @ List.filter (fun c -> not (List.exists (strictly_below c) r1)) r2
  in
  let rec maximal acc s =
    Budget.check budget;
    if Acceptance.eval acc s then [ s ]
    else
      match split acc s with
      | None -> []
      | Some (acc, x) ->
          merge
            (List.concat_map
               (fun c -> maximal acc (Iset.of_list c))
               (cycle_sccs ~n ~succ (Iset.diff s x)))
            (maximal (fin_false x acc) s)
  in
  maximal acc s

(* The answers [succ k i] may give besides a successor key. *)
let skip = -1
let past_end = -2

(* One run of Couvreur's SCC-root-stack search for [acc], with the keys
   whose marks meet [cut] kept off every cycle.  Keys are numbered in
   discovery order, so a key's number is its DFS index and the open
   roots increase from the bottom of [roots] up.  A frame is three
   ints: the key's number, the key and the next position to ask [succ]
   for, so a key's successors are asked for one at a time, in position
   order, and only while its frame is on top; a run that accepts early
   never asks for the rest.  An edge to an open state closes a cycle
   through it: every root above it joins it (their SCCs are one), and
   the merged root's states form a cycle whose infinity set is exactly
   them, so it accepts once [acc] holds on its marks.  A state whose
   root finishes lies in a completed SCC, and edges into it are ignored
   from then on.

   A [Fin]-free [acc] is monotone: an SCC whose marks fail it holds no
   accepting cycle.  With a [Fin] atom left ([split]), a smaller cycle
   inside a finished SCC may still accept, so the SCC's keys are kept
   (by number in [keys]) and {!accepting_scc} decides it, on the
   condition restricted to the SCC's marks, when that still has a
   [Fin]: Baier et al.'s recursion, applied to one SCC at a time.

   A cut key is closed as soon as it is discovered and waits on
   [pending]; it is expanded only when [frames] is empty, in a frame
   numbered [-1] that has no root, so every open state is closed by
   then and no cycle can pass through it.

   Every stack is an {!Int_stack}, and [seen] follows [roots] in chunks
   of the same size, so the state of a run that chains through a
   million keys is never copied: it starts as small literals and, past
   one chunk, grows by adding chunks.  The index is paged, so it costs
   about a word per key when the keys are dense.  Only [closed], a
   byte per number, still doubles: its copies come to a quarter of a
   word per key. *)
type run = {
  budget : Budget.t;
  marks : int -> Iset.t;
  succ : int -> int -> int;
  cut : Iset.t;
  acc : Acceptance.t;
  index : Int_index.t;  (** key -> number *)
  mutable count : int;  (** keys discovered *)
  mutable closed : Bytes.t;  (** per number: closed or cut *)
  frames : Int_stack.t;  (** number, key, next position *)
  open_ : Int_stack.t;
  roots : Int_stack.t;  (** the first number of each open root *)
  mutable seen : Iset.t array;
      (** the marks root [i] has absorbed, for [i] below {!Int_stack.chunk} *)
  mutable more_seen : Iset.t array array;
      (** chunk [i / Int_stack.chunk] of [seen] past the first *)
  pending : Int_stack.t;  (** cut keys not yet expanded *)
  split : bool;  (** [acc] has a [Fin] atom *)
  keys : Int_stack.t;  (** number -> key, kept when [split] *)
}

let get_seen r i =
  if i < Int_stack.chunk then r.seen.(i)
  else r.more_seen.(i / Int_stack.chunk).(i mod Int_stack.chunk)

(* [i] is at most one past the last root set: the first chunk doubles
   up to {!Int_stack.chunk}, as a stack does, then chunks are added *)
let set_seen r i m =
  if i < Int_stack.chunk then begin
    if i = Array.length r.seen then begin
      let s = Array.make (min (2 * i) Int_stack.chunk) Iset.empty in
      Array.blit r.seen 0 s 0 i;
      r.seen <- s
    end;
    r.seen.(i) <- m
  end
  else begin
    let c = i / Int_stack.chunk in
    if c >= Array.length r.more_seen then begin
      let d = Array.make (2 * c) [||] in
      Array.blit r.more_seen 0 d 0 (Array.length r.more_seen);
      r.more_seen <- d
    end;
    if Array.length r.more_seen.(c) = 0 then
      r.more_seen.(c) <- Array.make Int_stack.chunk Iset.empty;
    r.more_seen.(c).(i mod Int_stack.chunk) <- m
  end

(* The common case of {!Int_stack.push}, [drop] and [peek], inside one
   chunk, in line: a run pushes and pops several ints per key, and a
   call into another module is not inlined.  Crossing a chunk boundary
   goes through {!Int_stack}. *)
let push (s : Int_stack.t) x =
  if s.top < Array.length s.data then begin
    Array.unsafe_set s.data s.top x;
    s.top <- s.top + 1
  end
  else Int_stack.push s x

let drop (s : Int_stack.t) n =
  if s.top > n then s.top <- s.top - n else Int_stack.drop s n

let peek (s : Int_stack.t) = s.data.(s.top - 1)

let pop s =
  let x = peek s in
  drop s 1;
  x

let enter r v key =
  push r.frames v;
  push r.frames key;
  push r.frames 0

(* [key] is already bound to the next number *)
let discover r key =
  Budget.tick r.budget;
  let v = r.count in
  r.count <- v + 1;
  if v = Bytes.length r.closed then begin
    let b = Bytes.make (2 * v) '\000' in
    Bytes.blit r.closed 0 b 0 v;
    r.closed <- b
  end;
  if r.split then push r.keys key;
  let m = r.marks key in
  if not (Iset.disjoint m r.cut) then begin
    Bytes.set r.closed v '\001';
    push r.pending key
  end
  else begin
    set_seen r (Int_stack.length r.roots) m;
    push r.roots v;
    push r.open_ v;
    enter r v key
  end

(* the root below every root above the open state [w] absorbs them *)
let merge r w =
  let m = ref Iset.empty in
  while peek r.roots > w do
    drop r.roots 1;
    m := Iset.union (get_seen r (Int_stack.length r.roots)) !m
  done;
  let i = Int_stack.length r.roots - 1 in
  let u = Iset.union (get_seen r i) !m in
  set_seen r i u;
  Acceptance.eval r.acc u

(* closes the SCC of the finished root [v], and returns its numbers
   when they are kept *)
let close r v =
  let scc = ref [] in
  while r.open_.top > 0 && peek r.open_ >= v do
    let w = pop r.open_ in
    Bytes.set r.closed w '\001';
    if r.split then scc := w :: !scc
  done;
  !scc

(* Does a cycle inside the finished SCC [scc], whose marks are [u],
   satisfy [acc]?  The last merge into its root evaluated [acc] on [u];
   a singleton's only cycle is itself.  The search runs on the SCC's
   keys renumbered [0 .. s-1], its successors asked for again position
   by position and kept inside it. *)
let inside r u scc =
  match scc with
  | [] | [ _ ] -> false
  | _ -> (
      let acc = restrict r.acc u in
      match first_fin acc with
      | None -> false
      | Some _ ->
          let keys = Array.of_list (List.map (Int_stack.get r.keys) scc) in
          let s = Array.length keys in
          let local = Int_index.create () in
          Array.iteri (fun i k -> ignore (Int_index.find_or_add local k i)) keys;
          let succ i =
            let rec walk p out =
              let k = r.succ keys.(i) p in
              if k >= 0 then
                let j = Int_index.find local k in
                walk (p + 1) (if j >= 0 then j :: out else out)
              else if k = skip then walk (p + 1) out
              else out
            in
            walk 0 []
          in
          let marks = Array.map r.marks keys in
          let lifted =
            Acceptance.map_sets
              (fun x -> Iset.init s (fun i -> not (Iset.disjoint marks.(i) x)))
              acc
          in
          Option.is_some
            (accepting_scc ~budget:r.budget ~n:s ~succ lifted
               (Iset.init s (fun _ -> true))))

let rec loop r =
  let t = r.frames.top in
  if t = 0 then
    if r.pending.top = 0 then false
    else begin
      enter r (-1) (pop r.pending);
      loop r
    end
  else
    let f = r.frames.data in
    let p = f.(t - 1) in
    let key = r.succ f.(t - 2) p in
    if key >= 0 then begin
      f.(t - 1) <- p + 1;
      let w = Int_index.find_or_add r.index key r.count in
      if w = r.count then begin
        discover r key;
        loop r
      end
      else if Bytes.get r.closed w = '\000' && merge r w then true
      else loop r
    end
    else if key = skip then begin
      f.(t - 1) <- p + 1;
      loop r
    end
    else begin
      let v = f.(t - 3) in
      drop r.frames 3;
      if v >= 0 && peek r.roots = v then begin
        drop r.roots 1;
        let u = get_seen r (Int_stack.length r.roots) in
        inside r u (close r v) || loop r
      end
      else loop r
    end

(* The stack a run that never pushes onto [pending] (its cut is empty)
   or [keys] (it keeps no [Fin]) holds in their place: it stays empty,
   so runs on any domain may share it. *)
let unused = Int_stack.create ()

(* The verdict and the number of keys discovered. *)
let run ~budget ~marks ~succ ~cut acc start =
  let split = Option.is_some (first_fin acc) in
  let r =
    {
      budget;
      marks;
      succ;
      cut;
      acc;
      index = Int_index.create ();
      count = 0;
      closed = Bytes.make 16 '\000';
      frames = Int_stack.create ();
      open_ = Int_stack.create ();
      roots = Int_stack.create ();
      seen =
        Iset.
          [|
            empty; empty; empty; empty; empty; empty; empty; empty; empty;
            empty; empty; empty; empty; empty; empty; empty;
          |];
      more_seen = [||];
      pending = (if Iset.is_empty cut then unused else Int_stack.create ());
      split;
      keys = (if split then Int_stack.create () else unused);
    }
  in
  ignore (Int_index.find_or_add r.index start 0);
  discover r start;
  let accepting = loop r in
  (accepting, r.count)

type search = { accepting : bool; visited : int; runs : int }

let restrict_off cut acc =
  Acceptance.simplify (Acceptance.map_sets (fun s -> Iset.diff s cut) acc)

(* A cycle avoiding the cut keys has marks disjoint from [cut], so each
   atom is restricted to the marks outside it.  A cycle satisfying
   [acc] either avoids the keys marked in its first [Fin X], which one
   run cuts with [Fin X] true, or meets them and satisfies [acc] with
   [Fin X] false, which a second run searches.  That split is made
   once: a [Fin] left after it is decided inside each finished SCC, so
   the search makes at most two runs. *)
let on_the_fly ?(budget = Budget.unlimited) ~marks ~succ acc start =
  let visited = ref 0 and runs = ref 0 in
  let search cut = function
    | Acceptance.False -> false
    | acc ->
        incr runs;
        let accepting, n = run ~budget ~marks ~succ ~cut acc start in
        visited := !visited + n;
        accepting
  in
  let accepting =
    match first_fin acc with
    | None -> search Iset.empty acc
    | Some x ->
        search x (restrict_off x acc)
        || search Iset.empty (Acceptance.simplify (fin_false x acc))
  in
  { accepting; visited = !visited; runs = !runs }

(* Breadth-first path through [ok] states from one of [srcs] to [dst],
   at least one step long, as [src; ...; dst]: the searched-for state
   is recognized among successors, so it may be a source itself. *)
let path ~succ ~ok srcs dst =
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun v ->
      if not (Hashtbl.mem parent v) then begin
        Hashtbl.add parent v (-1);
        Queue.add v queue
      end)
    srcs;
  let rec back v acc =
    let p = Hashtbl.find parent v in
    if p < 0 then v :: acc else back p (v :: acc)
  in
  let rec bfs () =
    match Queue.take_opt queue with
    | None ->
        invalid_arg
          (Printf.sprintf "Emptiness.lasso: state %d is out of reach" dst)
    | Some v -> (
        let next = List.filter ok (succ v) in
        if List.mem dst next then back v [ dst ]
        else begin
          List.iter
            (fun w ->
              if not (Hashtbl.mem parent w) then begin
                Hashtbl.add parent w v;
                Queue.add w queue
              end)
            next;
          bfs ()
        end)
  in
  bfs ()

let rec inf_sets = function
  | Acceptance.Inf x -> [ x ]
  | And l | Or l -> List.concat_map inf_sets l
  | True | False | Fin _ -> []

let lasso ~succ ~starts acc s =
  let anchor =
    match Iset.min_elt_opt s with
    | Some q -> q
    | None -> invalid_arg "Emptiness.lasso: empty cycle"
  in
  let prefix =
    if List.mem anchor starts then [ anchor ]
    else path ~succ ~ok:(fun _ -> true) starts anchor
  in
  let inside q = Iset.mem q s in
  let reps =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun x -> Iset.min_elt_opt (Iset.inter x s))
         (inf_sets acc))
  in
  (* each leg drops its first state, the one the previous leg ended on *)
  let leg cur t = List.tl (path ~succ ~ok:inside [ cur ] t) in
  let cur, walk =
    List.fold_left
      (fun (cur, walk) t ->
        if t = cur then (cur, walk) else (t, walk @ leg cur t))
      (anchor, []) reps
  in
  (prefix, walk @ leg cur anchor)

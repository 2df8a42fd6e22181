type state = int

type t = {
  alpha : Alphabet.t;
  n : int;
  start : state;
  delta : state array array;
  accept : bool array;
}

let make ~alpha ~n ~start ~delta ~accept =
  if n <= 0 then invalid_arg "Dfa.make: need at least one state";
  if start < 0 || start >= n then invalid_arg "Dfa.make: start out of range";
  if Array.length delta <> n || Array.length accept <> n then
    invalid_arg "Dfa.make: wrong table size";
  let k = Alphabet.size alpha in
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Dfa.make: incomplete row";
      Array.iter
        (fun q -> if q < 0 || q >= n then invalid_arg "Dfa.make: bad target")
        row)
    delta;
  { alpha; n; start; delta; accept }

let const_lang alpha accept_all =
  let k = Alphabet.size alpha in
  {
    alpha;
    n = 1;
    start = 0;
    delta = [| Array.make k 0 |];
    accept = [| accept_all |];
  }

let empty_lang alpha = const_lang alpha false

let full alpha = const_lang alpha true

let sigma_plus alpha =
  let k = Alphabet.size alpha in
  {
    alpha;
    n = 2;
    start = 0;
    delta = [| Array.make k 1; Array.make k 1 |];
    accept = [| false; true |];
  }

let word_lang alpha w =
  let k = Alphabet.size alpha in
  let m = Array.length w in
  (* states 0..m along the word, state m+1 is the dead sink *)
  let dead = m + 1 in
  let n = m + 2 in
  let delta =
    Array.init n (fun q ->
        Array.init k (fun a ->
            if q < m && w.(q) = a then q + 1 else dead))
  in
  let accept = Array.init n (fun q -> q = m) in
  { alpha; n; start = 0; delta; accept }

let step d q a = d.delta.(q).(a)

let run d w = Array.fold_left (fun q a -> step d q a) d.start w

let accepts d w = d.accept.(run d w)

let accepts_empty d = d.accept.(d.start)

let complement d = { d with accept = Array.map not d.accept }

let check_same_alpha d1 d2 =
  if not (Alphabet.equal d1.alpha d2.alpha) then
    invalid_arg "Dfa: alphabet mismatch"

let product op d1 d2 =
  check_same_alpha d1 d2;
  let k = Alphabet.size d1.alpha in
  let n = d1.n * d2.n in
  let code q1 q2 = (q1 * d2.n) + q2 in
  let delta =
    Array.init n (fun q ->
        let q1 = q / d2.n and q2 = q mod d2.n in
        Array.init k (fun a -> code d1.delta.(q1).(a) d2.delta.(q2).(a)))
  in
  let accept =
    Array.init n (fun q -> op d1.accept.(q / d2.n) d2.accept.(q mod d2.n))
  in
  { alpha = d1.alpha; n; start = code d1.start d2.start; delta; accept }

let inter = product ( && )

let union = product ( || )

let diff = product (fun a b -> a && not b)

let xor = product ( <> )

let reachable d =
  let seen = Array.make d.n false in
  let rec visit q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Array.iter visit d.delta.(q)
    end
  in
  visit d.start;
  seen

let trim d =
  let seen = reachable d in
  let remap = Array.make d.n (-1) in
  let count = ref 0 in
  Array.iteri
    (fun q s ->
      if s then begin
        remap.(q) <- !count;
        incr count
      end)
    seen;
  let n = !count in
  let delta = Array.make n [||] and accept = Array.make n false in
  Array.iteri
    (fun q s ->
      if s then begin
        delta.(remap.(q)) <- Array.map (fun q' -> remap.(q')) d.delta.(q);
        accept.(remap.(q)) <- d.accept.(q)
      end)
    seen;
  { d with n; start = remap.(d.start); delta; accept }

module Signatures = Hashtbl.Make (struct
  type t = int array

  let equal (s : t) s' =
    let rec from i = i < 0 || (s.(i) = s'.(i) && from (i - 1)) in
    Array.length s = Array.length s' && from (Array.length s - 1)

  let hash s = Array.fold_left (fun h c -> (h * 31) + c) 0 s land max_int
end)

(* Moore partition refinement on the reachable part: a state's signature
   is its class followed by its successors' classes, and a round's new
   classes are the distinct signatures.  Rounds only split classes, so an
   unchanged class count means a stable partition.  Classes are then
   renumbered canonically by BFS order from the start state. *)
let minimize d =
  let d = trim d in
  let k = Alphabet.size d.alpha in
  let cls = Array.map (fun acc -> if acc then 1 else 0) d.accept in
  let classes =
    (if Array.mem true d.accept then 1 else 0)
    + if Array.mem false d.accept then 1 else 0
  in
  let key = Array.make (k + 1) 0 in
  let rec refine classes =
    let ids = Signatures.create classes in
    let next =
      Array.init d.n (fun q ->
          key.(0) <- cls.(q);
          Array.iteri (fun a q' -> key.(a + 1) <- cls.(q')) d.delta.(q);
          match Signatures.find_opt ids key with
          | Some c -> c
          | None ->
              let c = Signatures.length ids in
              Signatures.add ids (Array.copy key) c;
              c)
    in
    Array.blit next 0 cls 0 d.n;
    let classes' = Signatures.length ids in
    if classes' <> classes then refine classes' else classes
  in
  let m = refine classes in
  (* one state per class stands for it; its row, read through [cls], is
     the class's row *)
  let rep = Array.make m 0 in
  Array.iteri (fun q c -> rep.(c) <- q) cls;
  let order = Array.make m (-1) and queue = Array.make m 0 in
  let tail = ref 1 in
  order.(cls.(d.start)) <- 0;
  queue.(0) <- cls.(d.start);
  for head = 0 to m - 1 do
    Array.iter
      (fun q' ->
        let c = cls.(q') in
        if order.(c) < 0 then begin
          order.(c) <- !tail;
          queue.(!tail) <- c;
          incr tail
        end)
      d.delta.(rep.(queue.(head)))
  done;
  let delta =
    Array.map
      (fun c -> Array.map (fun q' -> order.(cls.(q'))) d.delta.(rep.(c)))
      queue
  in
  let accept = Array.map (fun c -> d.accept.(rep.(c))) queue in
  { d with n = m; start = 0; delta; accept }

let live_states d =
  (* backward reachability from accepting states *)
  let preds = Array.make d.n [] in
  Array.iteri
    (fun q row -> Array.iter (fun q' -> preds.(q') <- q :: preds.(q')) row)
    d.delta;
  let live = Array.copy d.accept in
  let queue = Queue.create () in
  Array.iteri (fun q acc -> if acc then Queue.add q queue) d.accept;
  while not (Queue.is_empty queue) do
    let q = Queue.pop queue in
    List.iter
      (fun p ->
        if not live.(p) then begin
          live.(p) <- true;
          Queue.add p queue
        end)
      preds.(q)
  done;
  live

let shortest_accepted d =
  (* BFS from start *)
  let parent = Array.make d.n None in
  let seen = Array.make d.n false in
  let queue = Queue.create () in
  seen.(d.start) <- true;
  Queue.add d.start queue;
  let found = ref None in
  (try
     if d.accept.(d.start) then begin
       found := Some d.start;
       raise Exit
     end;
     while not (Queue.is_empty queue) do
       let q = Queue.pop queue in
       Array.iteri
         (fun a q' ->
           if not seen.(q') then begin
             seen.(q') <- true;
             parent.(q') <- Some (q, a);
             if d.accept.(q') then begin
               found := Some q';
               raise Exit
             end;
             Queue.add q' queue
           end)
         d.delta.(q)
     done
   with Exit -> ());
  match !found with
  | None -> None
  | Some q ->
      let rec build q acc =
        match parent.(q) with
        | None -> acc
        | Some (p, a) -> build p (a :: acc)
      in
      Some (Array.of_list (build q []))

let is_empty d = shortest_accepted d = None

(* An accepting state is reachable in >= 1 step iff it is the successor of
   some reachable state (deeper witnesses factor through this case since
   successors of reachable states are reachable). *)
let is_empty_nonepsilon d =
  let reach = reachable d in
  let exists = ref false in
  Array.iteri
    (fun q r ->
      if r then
        Array.iter (fun q' -> if d.accept.(q') then exists := true) d.delta.(q))
    reach;
  not !exists

let is_universal d = is_empty (complement d)

let included d1 d2 = is_empty (diff d1 d2)

let equal d1 d2 = is_empty (xor d1 d2)

let equal_nonepsilon d1 d2 = is_empty_nonepsilon (xor d1 d2)

let included_nonepsilon d1 d2 = is_empty_nonepsilon (diff d1 d2)

let accepted_upto d ~max_len =
  List.filter (accepts d) (Word.enumerate d.alpha ~max_len)

let pp ppf d =
  Fmt.pf ppf "@[<v>DFA over %a: %d states, start %d@," Alphabet.pp d.alpha d.n
    d.start;
  for q = 0 to d.n - 1 do
    Fmt.pf ppf "  %d%s:" q (if d.accept.(q) then "*" else "");
    Array.iteri
      (fun a q' ->
        Fmt.pf ppf " %s->%d" (Alphabet.letter_name d.alpha a) q')
      d.delta.(q);
    Fmt.cut ppf ()
  done;
  Fmt.pf ppf "@]"

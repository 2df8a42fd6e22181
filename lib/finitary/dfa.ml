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

(* Hopcroft's partition refinement on the reachable part, on flat
   arrays.  Reachable states get dense numbers in BFS order; [pre]
   lists the predecessors of each (letter, state), in ranges that
   [pstart] delimits.  A block is a range of [elems], which [loc]
   inverts; splitting by a splitter (block, letter) moves the marked
   predecessors to the front of their block and cuts that front off as
   a new block.  The worklist holds each (block, letter) at most once;
   a split block's halves both enter for a letter the block was queued
   on, else the smaller half does.  The coarsest stable partition is
   the one Moore refinement reaches, and classes are then renumbered
   canonically by BFS order from the start state. *)
let minimize d =
  let k = Alphabet.size d.alpha in
  let idx = Array.make d.n (-1) and states = Array.make d.n 0 in
  idx.(d.start) <- 0;
  states.(0) <- d.start;
  let m = ref 1 in
  let head = ref 0 in
  while !head < !m do
    let row = d.delta.(states.(!head)) in
    incr head;
    for a = 0 to k - 1 do
      let q' = row.(a) in
      if idx.(q') < 0 then begin
        idx.(q') <- !m;
        states.(!m) <- q';
        incr m
      end
    done
  done;
  let m = !m in
  (* predecessors of (a, t) are [pre.(pstart.(a*m + t)) ..
     pre.(pstart.(a*m + t + 1) - 1)] *)
  let pstart = Array.make ((k * m) + 1) 0 and pre = Array.make (k * m) 0 in
  for i = 0 to m - 1 do
    let row = d.delta.(states.(i)) in
    for a = 0 to k - 1 do
      let x = (a * m) + idx.(row.(a)) + 1 in
      pstart.(x) <- pstart.(x) + 1
    done
  done;
  for x = 1 to k * m do
    pstart.(x) <- pstart.(x) + pstart.(x - 1)
  done;
  (* fill each range from its top down, then shift the starts back *)
  for i = m - 1 downto 0 do
    let row = d.delta.(states.(i)) in
    for a = 0 to k - 1 do
      let x = (a * m) + idx.(row.(a)) + 1 in
      pstart.(x) <- pstart.(x) - 1;
      pre.(pstart.(x)) <- i
    done
  done;
  for x = 0 to (k * m) - 1 do
    pstart.(x) <- pstart.(x + 1)
  done;
  pstart.(k * m) <- k * m;
  (* [elems] lists the rejecting states, then the accepting ones; they
     start as two blocks when both kinds occur *)
  let elems = Array.make m 0 and loc = Array.make m 0 in
  let blk = Array.make m 0 in
  let first = Array.make m 0 and stop = Array.make m 0 in
  let marked = Array.make m 0 in
  let rejecting = ref 0 in
  for i = 0 to m - 1 do
    if not d.accept.(states.(i)) then incr rejecting
  done;
  let lo = ref 0 and hi = ref !rejecting in
  for i = 0 to m - 1 do
    let p =
      if d.accept.(states.(i)) then (incr hi; !hi - 1) else (incr lo; !lo - 1)
    in
    elems.(p) <- i;
    loc.(i) <- p
  done;
  let blocks = ref 0 in
  let block lo hi =
    let b = !blocks in
    first.(b) <- lo;
    stop.(b) <- hi;
    for p = lo to hi - 1 do
      blk.(elems.(p)) <- b
    done;
    incr blocks;
    b
  in
  let work = Array.make (k * m) 0 and queued = Bytes.make (k * m) '\000' in
  let top = ref 0 in
  let push b a =
    let x = (b * k) + a in
    if Bytes.get queued x = '\000' then begin
      Bytes.set queued x '\001';
      work.(!top) <- x;
      incr top
    end
  in
  if !rejecting > 0 && !rejecting < m then begin
    let b0 = block 0 !rejecting in
    let b1 = block !rejecting m in
    let small = if !rejecting <= m - !rejecting then b0 else b1 in
    for a = 0 to k - 1 do
      push small a
    done
  end
  else ignore (block 0 m);
  let touched = Array.make m 0 and split = Array.make m 0 in
  while !top > 0 do
    decr top;
    let x = work.(!top) in
    Bytes.set queued x '\000';
    let s = x / k and a = x mod k in
    (* gather first: marking reorders blocks, [s] among them *)
    let nt = ref 0 in
    for p = first.(s) to stop.(s) - 1 do
      let r = (a * m) + elems.(p) in
      for j = pstart.(r) to pstart.(r + 1) - 1 do
        touched.(!nt) <- pre.(j);
        incr nt
      done
    done;
    let ns = ref 0 in
    for j = 0 to !nt - 1 do
      let t = touched.(j) in
      let b = blk.(t) in
      let c = marked.(b) in
      if c = 0 then begin
        split.(!ns) <- b;
        incr ns
      end;
      let p = loc.(t) and p' = first.(b) + c in
      let u = elems.(p') in
      elems.(p') <- t;
      loc.(t) <- p';
      elems.(p) <- u;
      loc.(u) <- p;
      marked.(b) <- c + 1
    done;
    for j = 0 to !ns - 1 do
      let b = split.(j) in
      let c = marked.(b) in
      marked.(b) <- 0;
      if c < stop.(b) - first.(b) then begin
        let nb = block first.(b) (first.(b) + c) in
        first.(b) <- first.(b) + c;
        let small = if c <= stop.(b) - first.(b) then nb else b in
        for a = 0 to k - 1 do
          if Bytes.get queued ((b * k) + a) <> '\000' then push nb a
          else push small a
        done
      end
    done
  done;
  (* Canonical numbering: a BFS over the classes from the start's class
     meets them in the order in which they first occur along the BFS
     over states (a later state of a class has the same successor
     classes as its first one), so [states] gives it directly; the
     first state of each class stands for it. *)
  let classes = !blocks in
  let order = Array.make classes (-1) and rep = Array.make classes 0 in
  let c = ref 0 in
  for i = 0 to m - 1 do
    let b = blk.(i) in
    if order.(b) < 0 then begin
      order.(b) <- !c;
      rep.(!c) <- states.(i);
      incr c
    end
  done;
  let delta =
    Array.map
      (fun q ->
        let row = d.delta.(q) in
        let r = Array.make k 0 in
        for a = 0 to k - 1 do
          r.(a) <- order.(blk.(idx.(row.(a))))
        done;
        r)
      rep
  in
  let accept = Array.map (fun q -> d.accept.(q)) rep in
  { d with n = classes; start = 0; delta; accept }

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

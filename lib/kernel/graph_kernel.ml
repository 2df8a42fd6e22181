(* Iterative Tarjan over slots [0 .. slots-1].  The call stack is two
   arrays: [frame] holds a frame's slot, [pending] the successors it
   has still to examine (the list [succ] returned, walked in place), so
   an edge costs no allocation.  A state's low-link is folded into its
   parent when the frame is popped, exactly as the recursive version
   does on return, and a completed state's index becomes [max_int], so
   "on the Tarjan stack" needs no array of its own: a cross edge to a
   finished component can never lower a low-link.  Visiting order, and
   hence the emitted component order, matches the recursive
   formulation.

   [slot w] is [w]'s slot, or [-1] when [w] is outside the region;
   [state s] maps back.  At most [cap] states are visited, which sizes
   the two stacks. *)
let tarjan ~slots ~cap ~succ ~slot ~state ~roots =
  let index = Array.make slots (-1) and low = Array.make slots 0 in
  let stack = Array.make cap 0 and sp = ref 0 in
  let frame = Array.make cap 0 and pending = Array.make cap [] in
  let depth = ref 0 in
  let counter = ref 0 and ncomps = ref 0 and out = ref [] in
  let discover s =
    let i = !counter in
    index.(s) <- i;
    low.(s) <- i;
    counter := i + 1;
    stack.(!sp) <- s;
    incr sp;
    frame.(!depth) <- s;
    pending.(!depth) <- succ (state s);
    incr depth
  in
  let finish s =
    if low.(s) = index.(s) then begin
      (* pop down to [s]: the component, bottom (= [s]) first *)
      let rec pop acc =
        if !sp = 0 then
          (* the Tarjan stack always holds every state of the
             component rooted at [s]; running dry means the low-link
             bookkeeping was corrupted — name the invariant instead of
             dying with a blind index error *)
          invalid_arg
            (Printf.sprintf
               "Graph_kernel: internal invariant broken: Tarjan \
                stack exhausted before reaching root state %d"
               (state s));
        decr sp;
        let w = stack.(!sp) in
        index.(w) <- max_int;
        let acc = state w :: acc in
        if w = s then acc else pop acc
      in
      out := pop [] :: !out;
      incr ncomps
    end
  in
  let visit root =
    discover root;
    while !depth > 0 do
      let d = !depth - 1 in
      let v = frame.(d) in
      match pending.(d) with
      | w :: rest ->
          pending.(d) <- rest;
          let t = slot w in
          if t >= 0 then begin
            let i = index.(t) in
            if i < 0 then discover t else if i < low.(v) then low.(v) <- i
          end
      | [] ->
          depth := d;
          finish v;
          if d > 0 then begin
            let p = frame.(d - 1) in
            if low.(v) < low.(p) then low.(p) <- low.(v)
          end
    done
  in
  roots (fun s -> if index.(s) < 0 then visit s);
  let tl = Telemetry.ambient () in
  Telemetry.add tl "graph.scc.nodes" !counter;
  Telemetry.add tl "graph.scc.components" !ncomps;
  !out

let sccs_in ~n ~succ ~allowed =
  tarjan ~slots:n ~cap:n ~succ
    ~slot:(fun w -> if allowed w then w else -1)
    ~state:Fun.id
    ~roots:(fun visit ->
      for v = 0 to n - 1 do
        if allowed v then visit v
      done)

let sccs ~n ~succ = sccs_in ~n ~succ ~allowed:(fun _ -> true)

(* A region covering at least an eighth of the graph indexes its
   states directly; a sparser one numbers its members 0 .. r-1 in
   increasing order and finds a successor's slot through an
   open-addressed index, so the call never touches an [n]-sized
   array.  Either way the roots are the members in increasing order,
   the order [sccs_in] tries them in. *)
let sccs_region ~n ~succ region =
  let r = Bitset.cardinal region in
  if 8 * r >= n then
    tarjan ~slots:n ~cap:r ~succ
      ~slot:(fun w -> if Bitset.mem w region then w else -1)
      ~state:Fun.id
      ~roots:(fun visit -> Bitset.iter visit region)
  else begin
    let members = Array.make r 0 and local = Int_index.create () in
    let i = ref 0 in
    Bitset.iter
      (fun q ->
        members.(!i) <- q;
        ignore (Int_index.find_or_add local q !i);
        incr i)
      region;
    tarjan ~slots:r ~cap:r ~succ
      ~slot:(fun w ->
        if Bitset.mem w region then Int_index.find local w else -1)
      ~state:(fun s -> members.(s))
      ~roots:(fun visit ->
        for s = 0 to r - 1 do
          visit s
        done)
  end

let reachable_in ~n ~succ ~allowed ~starts =
  let seen = Array.make n false in
  let nseen = ref 0 in
  let todo = ref [] in
  List.iter
    (fun v ->
      if allowed v && not seen.(v) then begin
        seen.(v) <- true;
        incr nseen;
        todo := v :: !todo
      end)
    starts;
  while !todo <> [] do
    match !todo with
    | [] -> ()
    | v :: rest ->
        todo := rest;
        List.iter
          (fun w ->
            if allowed w && not seen.(w) then begin
              seen.(w) <- true;
              incr nseen;
              todo := w :: !todo
            end)
          (succ v)
  done;
  Telemetry.add (Telemetry.ambient ()) "graph.reach.nodes" !nseen;
  seen

let reachable ~n ~succ ~starts =
  reachable_in ~n ~succ ~allowed:(fun _ -> true) ~starts

let nontrivial ~succ comp =
  match comp with
  | [] -> false
  | [ v ] -> List.mem v (succ v)
  | _ ->
      (* a multi-state SCC always carries an internal edge *)
      true

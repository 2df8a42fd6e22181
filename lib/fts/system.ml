exception State_space_too_large of int

type state = int array

type var = { name : string; lo : int; hi : int }

type transition = {
  tname : string;
  guard : state -> bool;
  action : state -> state list;
}

type fairness = Weak of string | Strong of string

type t = {
  vars : var list;
  var_index : (string, int) Hashtbl.t;
  init : state list;
  transitions : transition list;
  fair : fairness list;
  max_states : int;
  (* reachable graph, computed eagerly *)
  states : state array;
  state_index : (state, int) Hashtbl.t;
  edges : (int * int * int) list;  (* src, transition id, dst *)
}

let fairness_name = function Weak n -> n | Strong n -> n

let idle_name = "idle"

let make ?(budget = Budget.unlimited) ?(max_states = 200_000) ~vars ~init
    ~transitions ~fairness () =
  let var_index = Hashtbl.create 16 in
  List.iteri
    (fun i v ->
      if Hashtbl.mem var_index v.name then
        invalid_arg ("System.make: duplicate variable " ^ v.name);
      if v.lo > v.hi then invalid_arg ("System.make: empty range for " ^ v.name);
      Hashtbl.add var_index v.name i)
    vars;
  let names = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      if Hashtbl.mem names tr.tname then
        invalid_arg ("System.make: duplicate transition " ^ tr.tname);
      if tr.tname = idle_name then
        invalid_arg "System.make: 'idle' is reserved";
      Hashtbl.add names tr.tname ())
    transitions;
  List.iter
    (fun f ->
      if not (Hashtbl.mem names (fairness_name f)) then
        invalid_arg ("System.make: fairness for unknown transition " ^ fairness_name f))
    fairness;
  let nv = List.length vars in
  let check_state s =
    if Array.length s <> nv then invalid_arg "System.make: bad state arity";
    List.iteri
      (fun i v ->
        if s.(i) < v.lo || s.(i) > v.hi then
          invalid_arg ("System.make: value of " ^ v.name ^ " out of range"))
      vars
  in
  List.iter check_state init;
  (* reachable graph; the idling transition (id 0) is implicit *)
  let trans_arr = Array.of_list transitions in
  let state_index = Hashtbl.create 1024 in
  let rev_states = ref [] in
  let count = ref 0 in
  let intern s =
    match Hashtbl.find_opt state_index s with
    | Some i -> (i, true)
    | None ->
        Budget.tick budget;
        let i = !count in
        incr count;
        if i >= max_states then raise (State_space_too_large i);
        Hashtbl.add state_index s i;
        rev_states := s :: !rev_states;
        (i, false)
  in
  let edges = ref [] in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      let i, existed = intern s in
      if not existed then Queue.add (i, s) queue)
    init;
  while not (Queue.is_empty queue) do
    let i, s = Queue.pop queue in
    edges := (i, 0, i) :: !edges;
    Array.iteri
      (fun t tr ->
        if tr.guard s then
          List.iter
            (fun s' ->
              check_state s';
              let j, existed = intern s' in
              if not existed then Queue.add (j, s') queue;
              edges := (i, t + 1, j) :: !edges)
            (tr.action s))
      trans_arr
  done;
  let states = Array.of_list (List.rev !rev_states) in
  {
    vars;
    var_index;
    init;
    transitions;
    fair = fairness;
    max_states;
    states;
    state_index;
    edges = List.rev !edges;
  }

let vars t = t.vars

let transitions t = List.map (fun tr -> tr.tname) t.transitions

let fairness t = t.fair

let value t s name =
  match Hashtbl.find_opt t.var_index name with
  | Some i -> s.(i)
  | None -> invalid_arg ("System.value: unknown variable " ^ name)

let n_reachable t = Array.length t.states

let reachable_states t = Array.to_list t.states

(* "x=3" or "x" (nonzero) or "en_tau", parsed once into a state test;
   "taken_tau" depends on the incoming edge and is resolved in Check,
   not here. *)
let atom_pred t atom =
  let var_at name =
    match Hashtbl.find_opt t.var_index name with
    | Some i -> i
    | None -> invalid_arg ("System.value: unknown variable " ^ name)
  in
  match String.index_opt atom '=' with
  | Some i ->
      let name = String.sub atom 0 i in
      let v = int_of_string (String.sub atom (i + 1) (String.length atom - i - 1)) in
      let x = var_at name in
      fun s -> s.(x) = v
  | None ->
      if String.length atom > 3 && String.sub atom 0 3 = "en_" then begin
        let tn = String.sub atom 3 (String.length atom - 3) in
        if tn = idle_name then fun _ -> true
        else
          match List.find_opt (fun tr -> tr.tname = tn) t.transitions with
          | Some tr -> tr.guard
          | None -> invalid_arg ("System.atom_holds: unknown transition " ^ tn)
      end
      else if String.length atom > 6 && String.sub atom 0 6 = "taken_" then
        invalid_arg "System.atom_holds: taken_* atoms are resolved by Check"
      else
        let x = var_at atom in
        fun s -> s.(x) <> 0

let atom_holds t s atom = atom_pred t atom s

let rec state_formula_holds t s (f : Logic.Formula.t) =
  match f with
  | True -> true
  | False -> false
  | Atom a -> atom_holds t s a
  | Not g -> not (state_formula_holds t s g)
  | And (g, h) -> state_formula_holds t s g && state_formula_holds t s h
  | Or (g, h) -> state_formula_holds t s g || state_formula_holds t s h
  | Imp (g, h) -> (not (state_formula_holds t s g)) || state_formula_holds t s h
  | Iff (g, h) -> state_formula_holds t s g = state_formula_holds t s h
  | Next _ | Until _ | Wuntil _ | Ev _ | Alw _ | Prev _ | Wprev _ | Since _
  | Wsince _ | Once _ | Hist _ ->
      invalid_arg "System.state_formula_holds: not a state formula"

let pp_state t ppf s =
  Fmt.pf ppf "{%s}"
    (String.concat "; "
       (List.mapi (fun i v -> Printf.sprintf "%s=%d" v.name s.(i)) t.vars))

(* used by Check *)
let internal_edges t = t.edges

let internal_states t = t.states

let internal_transition_names t =
  Array.of_list (idle_name :: List.map (fun tr -> tr.tname) t.transitions)

let internal_init_ids t =
  List.map
    (fun s ->
      match Hashtbl.find_opt t.state_index s with
      | Some i -> i
      | None ->
          (* every initial state is interned when the reachable graph is
             built, so a miss means the caller mutated a state array it
             passed to [make] (states are hashtable keys: mutating one
             corrupts the index) — name the state instead of leaking a
             bare Not_found *)
          invalid_arg
            (Fmt.str
               "System.internal_init_ids: initial state %a is not in the \
                state index (was a state array mutated after make?)"
               (pp_state t) s))
    t.init

let internal_transitions t = t.transitions

let internal_init t = t.init

let internal_guard t tn s =
  if tn = idle_name then true
  else
    match List.find_opt (fun tr -> tr.tname = tn) t.transitions with
    | Some tr -> tr.guard s
    | None -> invalid_arg ("unknown transition " ^ tn)

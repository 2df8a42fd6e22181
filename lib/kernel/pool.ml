(* Fixed-size domain pool running index-ordered batch maps.  See
   pool.mli for the determinism contract; the invariants the
   implementation leans on:

   - A batch hands out its indexes from one atomic counter, so each
     task runs at most once; which domain claims it affects wall-clock
     only, never the slot contents, which are a pure function of the
     index.
   - [halt_from] is a monotone-min watermark over task indexes.  Only
     a task that tripped or raised at index [i] ever lowers it, to [i],
     so a task that was cancelled or skipped at index [j] proves a
     failure at some index [< j] — which is why discarding everything
     after the first failure reconstructs exactly the sequential
     prefix.
   - Result slots are plain arrays.  A slot is written by whichever
     domain runs the task, then published by that domain's decrement
     of the batch's [pending] counter; the submitter reads the slots
     only after seeing [pending] reach zero, so the atomic provides
     the happens-before edge.
   - A [map] called from a task runs inline on that domain, so a task
     never waits for another task.  A submitter claims indexes until
     none are left and then waits only for tasks already running
     elsewhere, which finish without waiting in turn: no deadlock. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  cond : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

type ctx = { budget : Budget.t; telemetry : Telemetry.t; index : int }

type 'a slot = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

exception Cancelled

let jobs t = t.jobs

(* Set on worker domains for their whole life, and on a submitting
   domain while it runs tasks: a [map] issued there runs inline.  One
   cell per domain, so that setting it is a plain write rather than a
   [Domain.DLS.set]. *)
let in_task : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* [f x] with [in_task] set, and reset afterwards unless it already
   was, on success and on an exception alike. *)
let as_task f x =
  let flag = Domain.DLS.get in_task in
  if !flag then f x
  else begin
    flag := true;
    match f x with
    | v ->
        flag := false;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        flag := false;
        Printexc.raise_with_backtrace e bt
  end

let worker t () =
  Domain.DLS.get in_task := true;
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.stop) && Queue.is_empty t.queue do
      Condition.wait t.cond t.mutex
    done;
    let thunk = if t.stop then None else Queue.take_opt t.queue in
    Mutex.unlock t.mutex;
    match thunk with
    | None -> ()
    | Some thunk ->
        (try thunk () with _ -> ());
        loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let ds = t.domains in
  t.stop <- true;
  t.domains <- [];
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join ds

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* The batch map                                                       *)
(* ------------------------------------------------------------------ *)

let rec lower_to a i =
  let cur = Atomic.get a in
  if i < cur && not (Atomic.compare_and_set a cur i) then lower_to a i

(* Queue [helpers] participants and claim indexes alongside them until
   the counter runs out, then wait for the tasks still running. *)
let fan_out t ~helpers n exec =
  let next = Atomic.make 0 and pending = Atomic.make n in
  let m = Mutex.create () and finished = Condition.create () in
  let rec participate () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      exec i;
      if Atomic.fetch_and_add pending (-1) = 1 then begin
        Mutex.lock m;
        Condition.broadcast finished;
        Mutex.unlock m
      end;
      participate ()
    end
  in
  Mutex.lock t.mutex;
  for _ = 1 to helpers do
    Queue.push participate t.queue
  done;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  as_task participate ();
  Mutex.lock m;
  while Atomic.get pending > 0 do
    Condition.wait finished m
  done;
  Mutex.unlock m

let map ?(budget = Budget.unlimited) ?telemetry t f items =
  if t.stop then invalid_arg "Pool.map: pool is shut down";
  let telemetry =
    match telemetry with Some h -> h | None -> Telemetry.ambient ()
  in
  let record = Telemetry.enabled telemetry in
  let inline =
    t.jobs = 1
    || (match items with [] | [ _ ] -> true | _ -> false)
    || !(Domain.DLS.get in_task)
  in
  if inline && (not record) && Budget.is_unlimited budget then
    (* Bare path: an unlimited parent cannot trip (its replicas would
       be unlimited too, and spent charges back to a counter nothing
       reads), and disabled telemetry drops every per-task report.
       The tiny-batch jobs=1 row of the parallel bench times this path
       against no pool (gate <= 1.004). *)
    let rec run index = function
      | [] -> []
      | x :: rest ->
          let y = f { budget; telemetry; index } x in
          y :: run (index + 1) rest
    in
    as_task (run 0) items
  else begin
    let arr = Array.of_list items in
    let n = Array.length arr in
    let slots = Array.make n Pending in
    let spent = Array.make n 0 in
    let reports = Array.make n None in
    let halt_from = Atomic.make n in
    let exec i =
      if Atomic.get halt_from > i then begin
        let poll () = if Atomic.get halt_from <= i then raise Cancelled in
        let tb = Budget.split budget ~among:n ~index:i ~poll () in
        let tc = if record then Telemetry.collector () else Telemetry.disabled in
        (match
           Telemetry.with_ambient tc (fun () ->
               f { budget = tb; telemetry = tc; index = i } arr.(i))
         with
        | v -> slots.(i) <- Done v
        | exception Cancelled when Atomic.get halt_from <= i -> ()
        | exception e ->
            slots.(i) <- Failed (e, Printexc.get_raw_backtrace ());
            lower_to halt_from i);
        spent.(i) <- Budget.spent tb;
        if record then reports.(i) <- Some (Telemetry.report tc)
      end
    in
    if inline then as_task (fun () -> for i = 0 to n - 1 do exec i done) ()
    else fan_out t ~helpers:(min (t.jobs - 1) (n - 1)) n exec;
    (* Charge the prefix up to the stop index back to the parent budget
       and merge its collectors in index order; later results are
       discarded, racing completions included. *)
    let stop = Atomic.get halt_from in
    for i = 0 to min stop (n - 1) do
      Budget.absorb budget ~spent:spent.(i);
      if record then Option.iter (Telemetry.absorb telemetry) reports.(i)
    done;
    if stop < n then
      match slots.(stop) with
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending | Done _ -> assert false
    else
      Array.to_list
        (Array.map
           (function Done v -> v | Pending | Failed _ -> assert false)
           slots)
  end

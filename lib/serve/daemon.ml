module Engine = Hierarchy.Engine

type config = {
  port : int option;
  jobs : int;
  max_inflight : int;
  default_fuel : int;
  max_fuel : int;
  default_timeout_ms : float;
  max_timeout_ms : float;
  refine_every : int;
  cache_mb : int;
  access_log : string option;
  debug_ops : bool;
  max_frame : int;
}

let default_config =
  {
    port = None;
    jobs = 2;
    max_inflight = 16;
    default_fuel = 2_000_000;
    max_fuel = 50_000_000;
    default_timeout_ms = 2_000.;
    max_timeout_ms = 10_000.;
    refine_every = 8;
    cache_mb = 32;
    access_log = None;
    debug_ops = false;
    max_frame = 1024 * 1024;
  }

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

(* serve.* counters are plain atomics, not a [Telemetry] handle:
   telemetry handles are single-domain by contract, and these are
   bumped from readers, workers and the watchdog concurrently *)
type counters = {
  received : int Atomic.t;  (* frames read, well-formed or not *)
  malformed : int Atomic.t;  (* unparseable / oversized frames *)
  accepted : int Atomic.t;  (* admitted past the gate *)
  shed : int Atomic.t;
  ok : int Atomic.t;
  degraded : int Atomic.t;
  errors : int Atomic.t;
  forced : int Atomic.t;  (* watchdog force-failures *)
  refine_runs : int Atomic.t;
  refined : int Atomic.t;  (* refinements that reached an exact result *)
  cache_hits : int Atomic.t;  (* response cache *)
  cache_misses : int Atomic.t;
}

let new_counters () =
  {
    received = Atomic.make 0;
    malformed = Atomic.make 0;
    accepted = Atomic.make 0;
    shed = Atomic.make 0;
    ok = Atomic.make 0;
    degraded = Atomic.make 0;
    errors = Atomic.make 0;
    forced = Atomic.make 0;
    refine_runs = Atomic.make 0;
    refined = Atomic.make 0;
    cache_hits = Atomic.make 0;
    cache_misses = Atomic.make 0;
  }

type conn = {
  cid : int;
  out : out_channel;
  wlock : Mutex.t;
  mutable alive : bool;  (* under wlock *)
  fd : Unix.file_descr option;  (* socket, for shutdown wake-up *)
}

(* a worker's retirement flag: set by the watchdog when the worker is
   judged stuck on a non-cooperative task; the worker checks it
   between items and exits, its replacement already running *)
type runner = { retired : bool Atomic.t }

type pending = {
  rid : int;
  preq : Protocol.request;
  pconn : conn;
  budget : Budget.t;
  fuel : int;  (* effective (clamped) fuel of this attempt *)
  deadline : float;  (* absolute seconds; watchdog force-fail point *)
  admitted_at : float;
  state : int Atomic.t;  (* 0 live, 1 finished (replied/force-failed) *)
  mutable runner : runner option;  (* under the server lock *)
}

type work =
  | Req of pending
  | Refine of { key : string; rreq : Protocol.request; rfuel : int }

type t = {
  cfg : config;
  c : counters;
  lock : Mutex.t;
  cond : Condition.t;
  work : work Queue.t;
  refine_q : work Queue.t;
  mutable served_since_refine : int;  (* under lock; drives the quota *)
  mutable stop : bool;  (* under lock *)
  inflight : int Atomic.t;
  table : (int, pending) Hashtbl.t;  (* rid -> pending, under lock *)
  resp_cache : (string, Protocol.body) Cache.t;
  access : Telemetry.line_writer option;
  rid_counter : int Atomic.t;
  cid_counter : int Atomic.t;
  mutable workers : (runner * unit Domain.t) list;  (* under lock *)
  extra_workers : int Atomic.t;  (* replacement-spawn budget left *)
  mutable readers : unit Domain.t list;  (* under lock *)
  mutable conn_fds : Unix.file_descr list;  (* under lock *)
  mutable listener : Unix.file_descr option;
}

let now () = Unix.gettimeofday ()

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

(* ------------------------------------------------------------------ *)
(* Writing frames                                                      *)
(* ------------------------------------------------------------------ *)

(* One whole line per response, flushed under the connection's mutex:
   two workers answering the same client cannot interleave partial
   frames.  A dead peer (EPIPE shows up as [Sys_error]) marks the
   connection; later replies for it are dropped silently — the
   request was already executed, there is just nobody left to tell. *)
let send conn line =
  Mutex.lock conn.wlock;
  (if conn.alive then
     try
       output_string conn.out line;
       output_char conn.out '\n';
       flush conn.out
     with Sys_error _ -> conn.alive <- false);
  Mutex.unlock conn.wlock

let send_body conn ~id body = send conn (Protocol.render ~id body)

(* ------------------------------------------------------------------ *)
(* Access log                                                          *)
(* ------------------------------------------------------------------ *)

let log_access t ~conn ~id ~op ~outcome ~code ~latency_ms ~spent ~cache =
  match t.access with
  | None -> ()
  | Some w ->
      let fields =
        [
          ("ts", Json.Float (now ()));
          ("conn", Json.Int conn.cid);
          ("id", id);
          ("op", Json.String op);
          ("outcome", Json.String outcome);
        ]
        @ (match code with Some c -> [ ("code", Json.String c) ] | None -> [])
        @ [
            ("latency_ms", Json.Float latency_ms);
            ("spent", Json.Int spent);
            ("cache", Json.String cache);
          ]
      in
      Telemetry.write_line w (Json.to_string (Json.Obj fields))

(* ------------------------------------------------------------------ *)
(* Request lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

(* Exactly-once reply: the worker and the watchdog race on [state];
   whoever wins the CAS replies, frees the admission slot and drops
   the table entry.  The loser's result is discarded — the state
   machine admits no second transition out of [finished]. *)
let finish t p =
  if Atomic.compare_and_set p.state 0 1 then begin
    Atomic.decr t.inflight;
    locked t (fun () -> Hashtbl.remove t.table p.rid);
    true
  end
  else false

let reply t p body ~outcome ~code ~cache =
  if finish t p then begin
    (match outcome with
    | "ok" -> Atomic.incr t.c.ok
    | "degraded" -> Atomic.incr t.c.degraded
    | _ -> Atomic.incr t.c.errors);
    send_body p.pconn ~id:p.preq.Protocol.id body;
    log_access t ~conn:p.pconn ~id:p.preq.Protocol.id
      ~op:p.preq.Protocol.op_name ~outcome ~code
      ~latency_ms:((now () -. p.admitted_at) *. 1000.)
      ~spent:(Budget.spent p.budget) ~cache
  end

(* ------------------------------------------------------------------ *)
(* Computing one operation                                             *)
(* ------------------------------------------------------------------ *)

let of_engine_result ~exhausted_of = function
  | Ok v -> (
      match exhausted_of v with
      | body, None -> (body, `Ok)
      | body, Some e -> (body, `Degraded e))
  | Error e -> (Protocol.engine_error_body e, `Error e)

let compute ~budget (req : Protocol.request) =
  let engine = req.Protocol.engine in
  match req.Protocol.op with
  | Protocol.Classify { formula; props; chars } ->
      of_engine_result
        ~exhausted_of:(fun (r : Engine.report) ->
          (Protocol.report_body r, r.Engine.exhausted))
        (Engine.classify ~budget ?engine ?props ?chars formula)
  | Protocol.Equiv { f1; f2; props; chars } ->
      of_engine_result
        ~exhausted_of:(fun (alpha, v) -> (Protocol.equiv_body alpha v, None))
        (Result.bind (Engine.parse f1) @@ fun a ->
         Result.bind (Engine.parse f2) @@ fun b ->
         Result.bind (Engine.alphabet ?props ?chars [ a; b ]) @@ fun alpha ->
         Result.map (fun v -> (alpha, v)) (Engine.equiv ~budget alpha a b))
  | Protocol.Lint { specs } ->
      of_engine_result
        ~exhausted_of:(fun v -> (Protocol.lint_body v, None))
        (Engine.lint ~budget ?engine specs)
  | Protocol.Spin { ms } ->
      (* deliberately never polls the budget: exists to exercise the
         watchdog under --debug-ops *)
      let stop_at = now () +. (float_of_int ms /. 1000.) in
      while now () < stop_at do
        ()
      done;
      ([ ("status", Json.String "ok"); ("spun_ms", Json.Int ms) ], `Ok)
  | Protocol.Ping | Protocol.Stats | Protocol.Shutdown ->
      (* answered on the reader; never enqueued *)
      (Protocol.error_body ~code:"internal" ~message:"op cannot be queued",
       `Error (Engine.Internal "op cannot be queued"))

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

let push_refine t ~key ~rreq ~rfuel =
  locked t (fun () ->
      if not t.stop then begin
        Queue.push (Refine { key; rreq; rfuel }) t.refine_q;
        Condition.signal t.cond
      end)

let maybe_refine t ~key (req : Protocol.request) ~fuel
    (e : Budget.exhaustion) =
  match (key, e.Budget.reason) with
  | Some key, Budget.Fuel when fuel < t.cfg.max_fuel ->
      push_refine t ~key ~rreq:req ~rfuel:(min (fuel * 4) t.cfg.max_fuel)
  | _ -> ()

let process_request t p =
  if Atomic.get p.state = 0 then begin
    let key =
      (* fault-injected requests must exercise the real compute path —
         a cached reply would bypass the very code under test (and the
         key excludes the budget, so a trip'd request would otherwise
         be answered by a neighbour's exact result) *)
      if p.preq.Protocol.inject_trip_at <> None then None
      else Protocol.cache_key p.preq
    in
    let cached = Option.bind key (fun k -> Cache.find t.resp_cache k) in
    match cached with
    | Some body ->
        Atomic.incr t.c.cache_hits;
        reply t p body ~outcome:"ok" ~code:None ~cache:"hit"
    | None ->
        if key <> None then Atomic.incr t.c.cache_misses;
        let body, outcome = compute ~budget:p.budget p.preq in
        let cache = if key = None then "none" else "miss" in
        (match outcome with
        | `Ok ->
            Option.iter (fun k -> Cache.add t.resp_cache k body) key;
            reply t p body ~outcome:"ok" ~code:None ~cache
        | `Degraded e ->
            (* answer now with the sound interval; queue an escalated
               retry that can only improve the cache, never this reply *)
            maybe_refine t ~key p.preq ~fuel:p.fuel e;
            reply t p body ~outcome:"degraded" ~code:(Some "budget_exceeded")
              ~cache
        | `Error err ->
            reply t p body ~outcome:"error"
              ~code:(Some (Protocol.code_of_error err))
              ~cache)
  end

let process_refine t ~key ~rreq ~rfuel =
  Atomic.incr t.c.refine_runs;
  let budget =
    Budget.make ~fuel:rfuel ~timeout_ms:t.cfg.max_timeout_ms ()
  in
  let body, outcome = compute ~budget rreq in
  match outcome with
  | `Ok ->
      Cache.add t.resp_cache key body;
      Atomic.incr t.c.refined
  | `Degraded e -> maybe_refine t ~key:(Some key) rreq ~fuel:rfuel e
  | `Error _ -> ()

(* Admitted work first — except that after every [refine_every]
   admitted requests, one queued refinement runs even while clients
   are waiting.  Strict priority (the previous rule: refinement only
   when the main queue is dry) starved the background escalation under
   sustained load: degraded verdicts were never retried, so the cache
   never converged to exact entries precisely when the daemon was busy
   enough for convergence to matter.  The quota bounds the added
   client latency (one bounded-fuel refinement per [refine_every]
   requests) while guaranteeing progress.  After [stop] the queues
   drain (a [shutdown] op still answers everything already admitted)
   and then workers exit. *)
let take t (r : runner) =
  locked t (fun () ->
      let rec wait () =
        let refine_due =
          t.served_since_refine >= t.cfg.refine_every
          && not (Queue.is_empty t.refine_q)
        in
        let next =
          if refine_due then Queue.take_opt t.refine_q
          else
            match Queue.take_opt t.work with
            | Some _ as w -> w
            | None -> Queue.take_opt t.refine_q
        in
        match next with
        | Some (Req p as w) ->
            p.runner <- Some r;
            t.served_since_refine <- t.served_since_refine + 1;
            Some w
        | Some (Refine _ as w) ->
            t.served_since_refine <- 0;
            Some w
        | None ->
            if t.stop then None
            else begin
              Condition.wait t.cond t.lock;
              wait ()
            end
      in
      wait ())

let rec worker_loop t (r : runner) =
  match take t r with
  | None -> ()
  | Some w ->
      (match w with
      | Req p ->
          process_request t p;
          locked t (fun () -> p.runner <- None)
      | Refine { key; rreq; rfuel } -> process_refine t ~key ~rreq ~rfuel);
      if not (Atomic.get r.retired) then worker_loop t r

let spawn_worker t =
  let r = { retired = Atomic.make false } in
  let d = Domain.spawn (fun () -> worker_loop t r) in
  locked t (fun () -> t.workers <- (r, d) :: t.workers)

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

(* Cooperative deadline enforcement is the budget's job (it polls the
   clock every 256 ticks); the watchdog is the backstop for requests
   that never poll — a non-cooperative op, a bug, a pathological
   allocation storm.  Grace covers the poll quantum plus scheduling
   noise so the watchdog never races a well-behaved request that is
   about to trip on its own. *)
let watchdog_grace = 0.25 (* seconds *)

let watchdog_tick t =
  let overdue =
    locked t (fun () ->
        Hashtbl.fold
          (fun _ p acc ->
            if
              Atomic.get p.state = 0
              && now () > p.deadline +. watchdog_grace
            then (p, p.runner) :: acc
            else acc)
          t.table [])
  in
  List.iter
    (fun (p, runner) ->
      if finish t p then begin
        Atomic.incr t.c.forced;
        Atomic.incr t.c.errors;
        let body =
          Protocol.error_body ~code:"budget_exceeded"
            ~message:
              "deadline passed without a cooperative budget poll; request \
               force-failed by the watchdog"
        in
        send_body p.pconn ~id:p.preq.Protocol.id body;
        log_access t ~conn:p.pconn ~id:p.preq.Protocol.id
          ~op:p.preq.Protocol.op_name ~outcome:"error"
          ~code:(Some "budget_exceeded")
          ~latency_ms:((now () -. p.admitted_at) *. 1000.)
          ~spent:(Budget.spent p.budget) ~cache:"none";
        (* the task is still burning its worker; retire it and spawn a
           replacement so admission capacity stays honest.  Bounded:
           the extra-worker budget caps runaway replacement. *)
        match runner with
        | Some r when not (Atomic.get r.retired) ->
            if Atomic.fetch_and_add t.extra_workers (-1) > 0 then begin
              Atomic.set r.retired true;
              spawn_worker t
            end
            else Atomic.incr t.extra_workers
        | _ -> ()
      end)
    overdue

let watchdog_loop t =
  let rec loop () =
    let stopped = locked t (fun () -> t.stop) in
    if not stopped then begin
      Unix.sleepf 0.05;
      watchdog_tick t;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let cache_stats_json (s : Cache.stats) =
  Json.Obj
    [
      ("entries", Json.Int s.Cache.entries);
      ("weight", Json.Int s.Cache.weight);
      ("capacity", Json.Int s.Cache.capacity);
      ("hits", Json.Int s.Cache.hits);
      ("misses", Json.Int s.Cache.misses);
      ("evictions", Json.Int s.Cache.evictions);
    ]

let stats_body t =
  let c n = Json.Int (Atomic.get n) in
  [
    ("status", Json.String "ok");
    ( "counters",
      Json.Obj
        [
          ("received", c t.c.received);
          ("malformed", c t.c.malformed);
          ("accepted", c t.c.accepted);
          ("shed", c t.c.shed);
          ("ok", c t.c.ok);
          ("degraded", c t.c.degraded);
          ("errors", c t.c.errors);
          ("forced", c t.c.forced);
          ("refine_runs", c t.c.refine_runs);
          ("refined", c t.c.refined);
          ("cache_hits", c t.c.cache_hits);
          ("cache_misses", c t.c.cache_misses);
        ] );
    ("inflight", Json.Int (Atomic.get t.inflight));
    ( "caches",
      Json.Obj
        [
          ("response", cache_stats_json (Cache.stats t.resp_cache));
          ("complement", cache_stats_json (Omega.Lang.complement_cache_stats ()));
        ] );
  ]

(* ------------------------------------------------------------------ *)
(* Admission and dispatch                                              *)
(* ------------------------------------------------------------------ *)

let initiate_shutdown t =
  locked t (fun () ->
      t.stop <- true;
      Condition.broadcast t.cond;
      (match t.listener with
      | Some fd ->
          t.listener <- None;
          (* [shutdown] before [close]: closing an fd does not wake a
             thread blocked in [accept] on Linux, shutting it down does *)
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      (* wake readers blocked on their sockets *)
      List.iter
        (fun fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conn_fds;
      t.conn_fds <- [])

let admit t conn (req : Protocol.request) =
  (* [fetch_and_add] first, compare after: two racing readers can both
     see room, but the gate still never exceeds [max_inflight] because
     the loser observes the winner's increment *)
  let slot = Atomic.fetch_and_add t.inflight 1 in
  if slot >= t.cfg.max_inflight then begin
    Atomic.decr t.inflight;
    Atomic.incr t.c.shed;
    send_body conn ~id:req.Protocol.id Protocol.shed_body;
    log_access t ~conn ~id:req.Protocol.id ~op:req.Protocol.op_name
      ~outcome:"shed" ~code:(Some "overloaded") ~latency_ms:0. ~spent:0
      ~cache:"none"
  end
  else begin
    Atomic.incr t.c.accepted;
    let fuel =
      max 1
        (min
           (Option.value req.Protocol.fuel ~default:t.cfg.default_fuel)
           t.cfg.max_fuel)
    in
    let timeout_ms =
      Float.max 1.
        (Float.min
           (Option.value req.Protocol.timeout_ms
              ~default:t.cfg.default_timeout_ms)
           t.cfg.max_timeout_ms)
    in
    let budget =
      match req.Protocol.inject_trip_at with
      | Some n when t.cfg.debug_ops -> Budget.inject_trip_at n
      | _ -> Budget.make ~fuel ~timeout_ms ()
    in
    let p =
      {
        rid = Atomic.fetch_and_add t.rid_counter 1;
        preq = req;
        pconn = conn;
        budget;
        fuel;
        deadline = now () +. (timeout_ms /. 1000.);
        admitted_at = now ();
        state = Atomic.make 0;
        runner = None;
      }
    in
    locked t (fun () ->
        Hashtbl.replace t.table p.rid p;
        Queue.push (Req p) t.work;
        Condition.signal t.cond)
  end

let dispatch t conn (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Ping ->
      send_body conn ~id:req.Protocol.id Protocol.pong_body;
      log_access t ~conn ~id:req.Protocol.id ~op:"ping" ~outcome:"ok"
        ~code:None ~latency_ms:0. ~spent:0 ~cache:"none"
  | Protocol.Stats ->
      send_body conn ~id:req.Protocol.id (stats_body t)
  | Protocol.Shutdown ->
      send_body conn ~id:req.Protocol.id
        [ ("status", Json.String "ok"); ("stopping", Json.Bool true) ];
      initiate_shutdown t
  | Protocol.Spin _ when not t.cfg.debug_ops ->
      Atomic.incr t.c.errors;
      send_body conn ~id:req.Protocol.id
        (Protocol.error_body ~code:"invalid_request"
           ~message:"debug ops are disabled (start with --debug-ops)")
  | _ when req.Protocol.inject_trip_at <> None && not t.cfg.debug_ops ->
      Atomic.incr t.c.errors;
      send_body conn ~id:req.Protocol.id
        (Protocol.error_body ~code:"invalid_request"
           ~message:"inject_trip_at requires --debug-ops")
  | Protocol.Classify _ | Protocol.Equiv _ | Protocol.Lint _
  | Protocol.Spin _ ->
      admit t conn req

(* ------------------------------------------------------------------ *)
(* Reading frames                                                      *)
(* ------------------------------------------------------------------ *)

(* One reader per connection (or stdin).  Every failure mode of a
   frame — oversized, unparseable bytes, well-formed JSON that is not
   a valid request — answers with a structured error and keeps the
   connection; only EOF or a transport error ends the loop. *)
let serve_channel t conn ic =
  let rec loop () =
    let continue_ = not (locked t (fun () -> t.stop)) in
    if continue_ then
      match input_line ic with
      | exception End_of_file -> ()
      | exception Sys_error _ -> ()
      | line ->
          Atomic.incr t.c.received;
          if String.length line > t.cfg.max_frame then begin
            Atomic.incr t.c.malformed;
            send_body conn ~id:Json.Null
              (Protocol.error_body ~code:"invalid_request"
                 ~message:
                   (Printf.sprintf "frame longer than %d bytes" t.cfg.max_frame));
            loop ()
          end
          else if String.trim line = "" then loop ()
          else begin
            (match Json.of_string line with
            | Error msg ->
                Atomic.incr t.c.malformed;
                send_body conn ~id:Json.Null
                  (Protocol.error_body ~code:"parse_error"
                     ~message:("malformed frame: " ^ msg));
                log_access t ~conn ~id:Json.Null ~op:"?" ~outcome:"error"
                  ~code:(Some "parse_error") ~latency_ms:0. ~spent:0
                  ~cache:"none"
            | Ok j -> (
                match Protocol.parse_request j with
                | Error (id, code, message) ->
                    Atomic.incr t.c.malformed;
                    send_body conn ~id (Protocol.error_body ~code ~message);
                    log_access t ~conn ~id ~op:"?" ~outcome:"error"
                      ~code:(Some code) ~latency_ms:0. ~spent:0 ~cache:"none"
                | Ok req -> dispatch t conn req));
            loop ()
          end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

let serve_stdio t =
  let conn =
    {
      cid = 0;
      out = stdout;
      wlock = Mutex.create ();
      alive = true;
      fd = None;
    }
  in
  serve_channel t conn stdin

let serve_tcp t port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  locked t (fun () -> t.listener <- Some sock);
  let rec accept_loop () =
    let stopped = locked t (fun () -> t.stop) in
    if not stopped then
      match Unix.accept sock with
      | exception Unix.Unix_error _ -> () (* listener closed: shutting down *)
      | fd, _ ->
          let conn =
            {
              cid = Atomic.fetch_and_add t.cid_counter 1;
              out = Unix.out_channel_of_descr fd;
              wlock = Mutex.create ();
              alive = true;
              fd = Some fd;
            }
          in
          let ic = Unix.in_channel_of_descr fd in
          locked t (fun () -> t.conn_fds <- fd :: t.conn_fds);
          let d =
            Domain.spawn (fun () ->
                serve_channel t conn ic;
                Mutex.lock conn.wlock;
                conn.alive <- false;
                Mutex.unlock conn.wlock;
                try Unix.close fd with Unix.Unix_error _ -> ())
          in
          locked t (fun () -> t.readers <- d :: t.readers);
          accept_loop ()
  in
  accept_loop ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run cfg =
  if cfg.jobs < 1 then invalid_arg "Daemon.run: jobs must be >= 1";
  if cfg.refine_every < 1 then
    invalid_arg "Daemon.run: refine_every must be >= 1";
  if cfg.max_inflight < 1 then
    invalid_arg "Daemon.run: max_inflight must be >= 1";
  (* a client hanging up mid-reply must surface as [Sys_error], not
     kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* carve the memory bound: half to complements, half to response
     bodies *)
  let bytes = cfg.cache_mb * 1024 * 1024 in
  Omega.Lang.set_complement_cache_capacity (bytes / 2);
  let access =
    match cfg.access_log with
    | None -> None
    | Some "-" -> Some (Telemetry.line_writer stderr)
    | Some path -> Some (Telemetry.line_writer (open_out path))
  in
  let t =
    {
      cfg;
      c = new_counters ();
      lock = Mutex.create ();
      cond = Condition.create ();
      work = Queue.create ();
      refine_q = Queue.create ();
      served_since_refine = 0;
      stop = false;
      inflight = Atomic.make 0;
      table = Hashtbl.create 64;
      resp_cache =
        Cache.create ~name:"serve.response" ~capacity:(bytes / 2)
          ~weight:(fun k body ->
            String.length k + String.length (Protocol.render ~id:Json.Null body))
          ();
      access;
      rid_counter = Atomic.make 0;
      cid_counter = Atomic.make 1;
      workers = [];
      extra_workers = Atomic.make (2 * cfg.jobs);
      readers = [];
      conn_fds = [];
      listener = None;
    }
  in
  for _ = 1 to cfg.jobs do
    spawn_worker t
  done;
  let wd = Domain.spawn (fun () -> watchdog_loop t) in
  (match cfg.port with None -> serve_stdio t | Some p -> serve_tcp t p);
  (* transport done (EOF or shutdown op): drain and leave *)
  initiate_shutdown t;
  let workers, readers =
    locked t (fun () -> (t.workers, t.readers))
  in
  List.iter
    (fun (r, d) -> if not (Atomic.get r.retired) then Domain.join d)
    workers;
  Domain.join wd;
  List.iter Domain.join readers;
  Option.iter Telemetry.close_lines t.access

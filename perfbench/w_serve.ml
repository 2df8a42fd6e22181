(* serve: `hpt serve` at its defaults (--jobs 2, pool jobs 1), driven
   over TCP from outside by one generator thread on two connections.

   The load is an open loop: request i is due at a seeded Poisson time
   and is sent then, whether or not earlier replies came back; its
   latency runs from its due time to its reply, so a stall of the daemon
   also charges the requests queued behind it.  Requests come from a
   seeded pool of classify, lint and equiv requests with repeats (seven
   draws in ten from a hot tenth), so the response cache both hits and
   misses; a tenth are malformed frames and a tenth carry low fuel, so
   degraded answers queue background refinement.

   A run starts one daemon.  A main phase at a fixed rate well below
   capacity gives the end-to-end metrics; then a ladder of rising rates
   on the same, warm daemon gives max_rate_rps: the highest rung, with
   every rung below it, whose p99 meets [latency_limit_ms] with no
   growing backlog.  The ladder stops at the first rung that fails.  A shed or failed request counts as missing the
   limit.  Every reply is checked against the in-process answer to the
   same frame. *)

open Hierarchy
module J = Serve.Json
module P = Serve.Protocol

let latency_limit_ms = 100.
let main_rate = 100.

(* Rungs half apart, from the main rate to well above the saturation
   point of the default daemon on two cores. *)
let ladder =
  [ 150.; 225.; 340.; 510.; 760.; 1140.; 1710.; 2560.; 3840.; 5770.; 8650.; 13000.; 19500.; 29200. ]
let default_fuel = Serve.Daemon.default_config.Serve.Daemon.default_fuel
let max_fuel = Serve.Daemon.default_config.Serve.Daemon.max_fuel

(* ------------------------------------------------------------------ *)
(* Requests and their in-process answers                               *)
(* ------------------------------------------------------------------ *)

let frame id (r : Gen.request) =
  let obj fields = J.to_string (J.Obj (("id", J.Int id) :: fields)) in
  match r with
  | Gen.Classify { props; formula; fuel } ->
      obj
        ([ ("op", J.String "classify"); ("formula", J.String formula); ("props", J.String props) ]
        @ match fuel with Some f -> [ ("fuel", J.Int f) ] | None -> [])
  | Gen.Lint specs ->
      obj
        [
          ("op", J.String "lint");
          ("specs", J.List (List.map (fun (n, f) -> J.Obj [ ("name", J.String n); ("formula", J.String f) ]) specs));
        ]
  | Gen.Equiv { props; f1; f2 } ->
      obj [ ("op", J.String "equiv"); ("f1", J.String f1); ("f2", J.String f2); ("props", J.String props) ]
  | Gen.Malformed text -> (
      (* keep the id where the frame is JSON, so the reply can be matched *)
      match J.of_string text with
      | Ok (J.Obj fields) -> J.to_string (J.Obj (("id", J.Int id) :: List.remove_assoc "id" fields))
      | _ -> text)

(* What the daemon computes for an admitted request (Daemon.compute),
   under fuel alone: the in-process answer has no deadline. *)
let compute ~fuel (req : P.request) =
  let budget = Budget.make ~fuel () in
  let body, exact =
    match req.P.op with
    | P.Classify { formula; props; chars } -> (
        match Engine.classify ~budget ?props ?chars formula with
        | Ok r -> (P.report_body r, r.Engine.exhausted = None)
        | Error e -> (P.engine_error_body e, false))
    | P.Equiv { f1; f2; props; chars } -> (
        match
          Result.bind (Engine.parse f1) @@ fun a ->
          Result.bind (Engine.parse f2) @@ fun b ->
          Result.bind (Engine.alphabet ?props ?chars [ a; b ]) @@ fun alpha ->
          Result.map (fun v -> (alpha, v)) (Engine.equiv ~budget alpha a b)
        with
        | Ok (alpha, v) -> (P.equiv_body alpha v, true)
        | Error e -> (P.engine_error_body e, false))
    | P.Lint { specs } -> (
        match Engine.lint ~budget specs with
        | Ok v -> (P.lint_body v, true)
        | Error e -> (P.engine_error_body e, false))
    | _ -> (P.error_body ~code:"internal" ~message:"not a query", false)
  in
  (body, exact, Budget.spent budget)

type expectation = {
  echoed : bool;  (** the reply carries the frame's id; else null *)
  bodies : P.body list;  (** acceptable reply bodies *)
  exact : bool option;  (** [Some] for answered queries *)
  spent : int;
}

(* The daemon's reader, replayed: a frame that is not JSON or not a
   request gets its documented error; a query gets the engine's answer.
   A low-fuel classify may also be answered exactly, once a refinement
   or a full-fuel twin has put the exact answer in the response cache
   (the cache key ignores the budget). *)
let expect line =
  match J.of_string line with
  | Error msg ->
      { echoed = false; bodies = [ P.error_body ~code:"parse_error" ~message:("malformed frame: " ^ msg) ]; exact = None; spent = 0 }
  | Ok j -> (
      match P.parse_request j with
      | Error (id, code, message) ->
          { echoed = id <> J.Null; bodies = [ P.error_body ~code ~message ]; exact = None; spent = 0 }
      | Ok req ->
          let fuel = max 1 (min (Option.value req.P.fuel ~default:default_fuel) max_fuel) in
          let body, exact, spent = compute ~fuel req in
          let bodies =
            if fuel < default_fuel && not exact then
              let full, _, _ = compute ~fuel:default_fuel req in
              [ body; full ]
            else [ body ]
          in
          { echoed = true; bodies; exact = Some exact; spent })

(* ------------------------------------------------------------------ *)
(* The request stream                                                  *)
(* ------------------------------------------------------------------ *)

type stream = {
  pool : Gen.request array;
  expectations : expectation array;
  pick : Random.State.t -> int;  (** next pool index: 7 draws in 10 from a hot tenth *)
}

let stream ~seed ~tiny =
  let pool = Array.of_list (Gen.serve_pool ~seed (if tiny then 40 else 600)) in
  let n = Array.length pool in
  let hot = max 1 (n / 10) in
  {
    pool;
    expectations = Array.map (fun r -> expect (frame 0 r)) pool;
    pick = (fun st -> if Random.State.int st 10 < 7 then Random.State.int st hot else Random.State.int st n);
  }

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int }

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port = match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  Unix.close s;
  port

let connect port =
  let rec go tries =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () ->
        Unix.setsockopt s Unix.TCP_NODELAY true;
        s
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
        Unix.close s;
        Unix.sleepf 0.002;
        go (tries - 1)
  in
  go 5000

let start ~hpt =
  let port = free_port () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process hpt [| hpt; "serve"; "--port"; string_of_int port |] devnull devnull Unix.stderr
  in
  Unix.close devnull;
  { pid; port }

(* One request on a fresh connection, blocking. *)
let roundtrip port line =
  let s = connect port in
  let oc = Unix.out_channel_of_descr s and ic = Unix.in_channel_of_descr s in
  output_string oc (line ^ "\n");
  flush oc;
  let reply = input_line ic in
  Unix.close s;
  reply

let stop d =
  (try ignore (roundtrip d.port "{\"id\":0,\"op\":\"shutdown\"}") with _ -> Unix.kill d.pid Sys.sigkill);
  ignore (Unix.waitpid [] d.pid)

(* Set-up: from daemon start to its first reply, median of several. *)
let setup_s ~hpt =
  Meter.median
    (List.init 9 (fun _ ->
         let t0 = Meter.now () in
         let d = start ~hpt in
         let c = connect d.port in
         let oc = Unix.out_channel_of_descr c and ic = Unix.in_channel_of_descr c in
         output_string oc "{\"id\":1,\"op\":\"classify\",\"formula\":\"[] (p -> <> q)\"}\n";
         flush oc;
         ignore (input_line ic);
         let dt = Meter.now () -. t0 in
         Unix.close c;
         stop d;
         dt))

let stats d =
  match J.of_string (roundtrip d.port "{\"id\":0,\"op\":\"stats\"}") with
  | Ok j -> j
  | Error _ -> J.Null

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (fun v -> path v rest)

let stat_int j p = Option.value ~default:0 (Option.bind (path j p) J.to_int_opt)

(* ------------------------------------------------------------------ *)
(* One open-loop phase                                                 *)
(* ------------------------------------------------------------------ *)

type phase = {
  sent : int;
  ok : int;
  shed : int;
  wrong : int;  (** answered, but not with the in-process answer *)
  lost : int;  (** no reply by the end of the grace period *)
  latencies : float list;  (** s, from due time to reply, answered requests *)
  span : float;  (** s, from the first due time to the last reply *)
  window_p50s : float list;  (** median latency of each second of due times *)
  lags : float list;  (** s, from due time to send *)
  last_quarter : float list;
}

type conn = { fd : Unix.file_descr; mutable pending : string; nulls : int Queue.t }

(* [acc], in the traced run, times the JSON and protocol layers on the
   generator's side of every frame. *)
let phase ?acc ~port ~rate ~duration ~st (s : stream) =
  let timed name f = match acc with Some a -> Meter.Acc.timed a name f | None -> f () in
  let conns = Array.init 2 (fun _ -> { fd = connect port; pending = ""; nulls = Queue.create () }) in
  let n = max 1 (int_of_float (rate *. duration)) in
  let which = Array.init n (fun _ -> s.pick st) in
  (* exponential gaps, scaled so the phase offers exactly [rate] *)
  let gaps = Array.init n (fun _ -> -.log (1. -. Random.State.float st 1.)) in
  let scale = duration /. Array.fold_left ( +. ) 0. gaps in
  let t0 = Meter.now () +. 0.01 in
  let due = Array.make n t0 in
  for i = 1 to n - 1 do
    due.(i) <- due.(i - 1) +. (gaps.(i) *. scale)
  done;
  let replied = Array.make n nan and sent_at = Array.make n nan in
  let ok = ref 0 and shed = ref 0 and wrong = ref 0 and outstanding = ref 0 in
  let buf = Bytes.create 65536 in
  let handle c line =
    let id =
      match timed "json" (fun () -> J.of_string line) with
      | Ok j -> (
          match J.member "id" j with
          | Some (J.Int i) -> Some i
          | _ -> if Queue.is_empty c.nulls then None else Some (Queue.pop c.nulls))
      | Error _ -> None
    in
    match id with
    | Some i when i >= 0 && i < n && Float.is_nan replied.(i) ->
        replied.(i) <- Meter.now ();
        decr outstanding;
        let e = s.expectations.(which.(i)) in
        let rid = if e.echoed then J.Int i else J.Null in
        let rendered b = timed "protocol" (fun () -> P.render ~id:rid b) in
        if List.exists (fun b -> rendered b = line) e.bodies then incr ok
        else if rendered P.shed_body = line then incr shed
        else begin
          incr wrong;
          Checks.say_failure ~input:(frame i s.pool.(which.(i))) ("reply " ^ line)
        end
    | _ ->
        incr wrong;
        Checks.say_failure ~input:"(unmatched reply)" line
  in
  let read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
        let data = c.pending ^ Bytes.sub_string buf 0 k in
        let parts = String.split_on_char '\n' data in
        let rec go = function
          | [ last ] -> c.pending <- last
          | l :: rest ->
              handle c l;
              go rest
          | [] -> c.pending <- ""
        in
        go parts
  in
  let next = ref 0 in
  let finish = due.(n - 1) +. 5. in
  while (!next < n || !outstanding > 0) && Meter.now () < finish do
    let now = Meter.now () in
    while !next < n && due.(!next) <= now do
      let i = !next in
      let c = conns.(i mod 2) in
      let e = s.expectations.(which.(i)) in
      if not e.echoed then Queue.push i c.nulls;
      let line = timed "json" (fun () -> frame i s.pool.(which.(i))) in
      if acc <> None then
        ignore (timed "protocol" (fun () -> Result.map P.parse_request (J.of_string line)));
      let line = line ^ "\n" in
      sent_at.(i) <- Meter.now ();
      ignore (Unix.write_substring c.fd line 0 (String.length line));
      incr outstanding;
      incr next
    done;
    let wait = if !next < n then Float.max 0. (due.(!next) -. Meter.now ()) else 0.05 in
    let r, _, _ = Unix.select (Array.to_list (Array.map (fun c -> c.fd) conns)) [] [] wait in
    List.iter (fun fd -> Array.iter (fun c -> if c.fd == fd then read c) conns) r
  done;
  Array.iter (fun c -> Unix.close c.fd) conns;
  let lat i = replied.(i) -. due.(i) in
  let answered = List.filter (fun i -> not (Float.is_nan replied.(i))) (List.init n Fun.id) in
  let q = n / 4 in
  {
    sent = !next;
    ok = !ok;
    shed = !shed;
    wrong = !wrong;
    lost = n - List.length answered;
    latencies = List.map lat answered;
    span = List.fold_left (fun m i -> Float.max m replied.(i)) t0 answered -. t0;
    window_p50s =
      (let w = Hashtbl.create 16 in
       List.iter
         (fun i ->
           let k = int_of_float (due.(i) -. t0) in
           Hashtbl.replace w k (lat i :: Option.value ~default:[] (Hashtbl.find_opt w k)))
         answered;
       Hashtbl.fold (fun _ xs acc -> Meter.median xs :: acc) w []);
    lags = List.init !next (fun i -> sent_at.(i) -. due.(i));
    last_quarter = List.filter_map (fun i -> if i >= n - q then Some (lat i) else None) answered;
  }

(* p99 with every request that was not answered correctly counted as
   infinitely late. *)
let p99_with_failures p =
  let a = Meter.sorted (p.latencies @ List.init (p.sent - p.ok) (fun _ -> infinity)) in
  if a = [||] then infinity else Meter.percentile a 0.99

(* A backlog that grows makes the typical request at the end of the
   rung slow, not only the tail. *)
let rung_passes p =
  let growing = Meter.median p.last_quarter *. 1000. > latency_limit_ms /. 2. in
  p99_with_failures p *. 1000. <= latency_limit_ms && not growing

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run ~hpt ~tiny ~seed ~seconds =
  let setup = setup_s ~hpt in
  (* the in-process answers, with the words they allocate *)
  let s, alloc = Meter.allocated (fun () -> stream ~seed ~tiny) in
  let ex = Array.to_list s.expectations in
  let verdicts = List.filter_map (fun e -> e.exact) ex in
  let exact_share = float (List.length (List.filter Fun.id verdicts)) /. float (max 1 (List.length verdicts)) in
  let ticks = List.fold_left (fun a e -> a + e.spent) 0 ex in
  (* arrival times and pool draws come from a fixed stream, like every
     structural choice in Gen: the seed renames the atoms *)
  let st = Random.State.make [| 5 |] in
  let main_s = seconds *. 0.5 in
  (* the generator's own collector must not pause the open loop *)
  Gc.compact ();
  let d = start ~hpt in
  let cpu0 = Meter.proc_cpu_s d.pid in
  let main = phase ~port:d.port ~rate:main_rate ~duration:main_s ~st s in
  let cpu = Meter.proc_cpu_s d.pid -. cpu0 in
  let rss = Meter.peak_rss_mb ~pid:(string_of_int d.pid) () in
  let daemon_stats = stats d in
  let ladder = if tiny then [ 100.; 200. ] else ladder in
  let rung_s = seconds *. 0.5 /. float (List.length ladder) in
  let rec climb = function
    | [] -> []
    | rate :: rest ->
        let p = phase ~port:d.port ~rate ~duration:rung_s ~st s in
        (rate, p) :: (if rung_passes p then climb rest else [])
  in
  let rungs = climb ladder in
  stop d;
  let max_rate = List.fold_left (fun best (rate, p) -> if rung_passes p then rate else best) 0. rungs in
  (* above capacity a shed is the expected answer; a wrong or missing
     reply never is *)
  let failed =
    List.fold_left (fun a (_, p) -> a + p.wrong + p.lost) (main.sent - main.ok) rungs
  in
  let c name = Meter.m ("daemon." ^ name) "count" (float (stat_int daemon_stats [ "counters"; name ])) in
  {
    Meter.attempted = List.fold_left (fun a (_, p) -> a + p.sent) main.sent rungs;
    failed;
    metrics =
      [
        Meter.m "setup_s" "s" setup;
        Meter.m "throughput_rps" "1/s" (float main.ok /. main.span);
        Meter.m "latency_p50_ms" "ms" (Meter.median main.window_p50s *. 1000.);
        Meter.m "cpu_s" "s" cpu;
        Meter.m "peak_rss_mb" "MiB" rss;
        Meter.m "ok_share" "share" (float main.ok /. float main.sent);
        Meter.m "exact_share" "share" exact_share;
        Meter.m "ticks_m" "Mticks" (float ticks /. 1e6);
        Meter.m "alloc_mwords" "Mwords" (alloc /. 1e6);
      ];
    extra =
      Meter.latency_metrics main.latencies
      @ [
          Meter.m "latency_samples" "count" (float (List.length main.latencies));
          Meter.m "max_rate_rps" "1/s" max_rate;
          Meter.m "offered_rate_rps" "1/s" main_rate;
          Meter.m "gen.lag_p99_ms" "ms" (Meter.percentile (Meter.sorted main.lags) 0.99 *. 1000.);
          Meter.m "shed" "count" (float main.shed);
          Meter.m "wrong" "count" (float main.wrong);
          Meter.m "lost" "count" (float main.lost);
          c "shed";
          c "refine_runs";
          c "cache_hits";
          c "cache_misses";
        ]
      @ List.concat_map
          (fun (rate, p) ->
            let tag = Printf.sprintf "rung.%.0f" rate in
            [
              Meter.m (tag ^ ".answered_p99_ms") "ms"
                (match Meter.sorted p.latencies with [||] -> 0. | a -> Meter.percentile a 0.99 *. 1000.);
              Meter.m (tag ^ ".shed") "count" (float p.shed);
              Meter.m (tag ^ ".sent") "count" (float p.sent);
              Meter.m (tag ^ ".passes") "bool" (if rung_passes p then 1. else 0.);
            ])
          rungs;
  }

(* The traced run: a short main phase with the generator-side layers
   timed, a burst far above capacity so the daemon sheds, then the
   daemon's own counters from its stats op. *)
let layers ~hpt ~tiny ~seed =
  let s = stream ~seed ~tiny in
  let st = Random.State.make [| 6 |] in
  let acc = Meter.Acc.create () in
  List.iter (fun n -> Meter.Acc.add acc ~unit_:"ms" (n ^ ".ms") 0.) [ "json"; "protocol" ];
  let d = start ~hpt in
  let main = phase ~acc ~port:d.port ~rate:main_rate ~duration:(if tiny then 1. else 5.) ~st s in
  ignore (phase ~port:d.port ~rate:30000. ~duration:0.3 ~st s);
  let j = stats d in
  stop d;
  let ratio cache =
    let hits = stat_int j [ "caches"; cache; "hits" ] and misses = stat_int j [ "caches"; cache; "misses" ] in
    if hits + misses = 0 then 0. else float hits /. float (hits + misses)
  in
  Meter.Acc.add acc "daemon.shed" (float (stat_int j [ "counters"; "shed" ]));
  Meter.Acc.add acc "daemon.refine_runs" (float (stat_int j [ "counters"; "refine_runs" ]));
  Meter.Acc.add acc ~unit_:"share" "cache.response.hit_ratio" (ratio "response");
  Meter.Acc.add acc ~unit_:"share" "cache.complement.hit_ratio" (ratio "complement");
  Meter.Acc.add acc ~unit_:"ms" "gen.lag_p99_ms" (Meter.percentile (Meter.sorted main.lags) 0.99 *. 1000.);
  { Meter.attempted = main.sent; failed = main.sent - main.ok; metrics = Meter.Acc.metrics ~prefix:"serve" acc; extra = [] }

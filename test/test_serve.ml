(* The serve layer: the JSON codec round-trips and rejects garbage
   without raising, the kernel cache really bounds resident weight,
   protocol parsing maps every malformed frame to a structured reject,
   and the daemon — driven over a real socket — survives chaos
   (injected budget trips, malformed frames), sheds above the
   admission gate, force-fails non-cooperative requests, and keeps its
   caches under their configured bound. *)

module Json = Serve.Json
module Protocol = Serve.Protocol
module Daemon = Serve.Daemon

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

(* floats as small dyadics so [%.12g] prints them exactly and the
   round-trip is equality, not tolerance *)
let gen_json =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun n -> Json.Float (float_of_int n /. 8.)) (int_range (-8000) 8000);
        map (fun s -> Json.String s) (string_size ~gen:printable (int_bound 20));
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            ( 1,
              map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1)))
            );
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4)
                   (pair (string_size ~gen:printable (int_bound 8)) (self (depth - 1))))
            );
          ])
    3

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json.to_string/of_string round-trip"
    (QCheck.make gen_json) (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> j = j'
      | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg)

let json_never_raises =
  QCheck.Test.make ~count:500 ~name:"Json.of_string never raises"
    QCheck.(string_gen_of_size (Gen.int_bound 64) Gen.char)
    (fun s ->
      match Json.of_string s with Ok _ | Error _ -> true)

let json_unit_tests =
  [
    Alcotest.test_case "rejects trailing garbage and bad frames" `Quick
      (fun () ->
        List.iter
          (fun s ->
            match Json.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [
            "";
            "{";
            "{\"a\":1,}";
            "[1,2,";
            "{\"a\":1} trailing";
            "\"unterminated";
            "\"raw\tcontrol\"";
            "nul";
            "{\"a\" 1}";
          ]);
    Alcotest.test_case "escapes round-trip control and unicode" `Quick
      (fun () ->
        let s = "a\"b\\c\nd\te\x01f" in
        match Json.of_string (Json.to_string (Json.String s)) with
        | Ok (Json.String s') -> Alcotest.(check string) "string" s s'
        | _ -> Alcotest.fail "round-trip failed");
    Alcotest.test_case "\\u escapes decode to UTF-8" `Quick (fun () ->
        match Json.of_string {|"é😀"|} with
        | Ok (Json.String s) ->
            Alcotest.(check string) "utf8" "\xc3\xa9\xf0\x9f\x98\x80" s
        | _ -> Alcotest.fail "unicode escape");
  ]

(* ------------------------------------------------------------------ *)
(* Kernel cache bounds                                                 *)
(* ------------------------------------------------------------------ *)

let cache_tests =
  [
    Alcotest.test_case "resident weight never exceeds capacity" `Quick
      (fun () ->
        let c =
          Cache.create ~shards:1 ~capacity:1000
            ~weight:(fun _ v -> v)
            ()
        in
        for i = 1 to 200 do
          Cache.add c i 50
        done;
        let s = Cache.stats c in
        check "bounded" true (s.Cache.weight <= 1000);
        check "evicted" true (s.Cache.evictions > 0);
        check "not empty" true (s.Cache.entries > 0));
    Alcotest.test_case "an entry wider than the budget is not stored" `Quick
      (fun () ->
        let c =
          Cache.create ~shards:1 ~capacity:100
            ~weight:(fun _ v -> v)
            ()
        in
        Cache.add c 1 1000;
        check "not stored" true (Cache.find c 1 = None));
    Alcotest.test_case "stats count hits, misses and resident entries" `Quick
      (fun () ->
        let c = Cache.create ~capacity:10_000 ~weight:(fun _ _ -> 1) () in
        Cache.add c "a" 1;
        Cache.add c "b" 2;
        check "hit a" true (Cache.find c "a" = Some 1);
        check "hit b" true (Cache.find c "b" = Some 2);
        check "miss" true (Cache.find c "z" = None);
        let s = Cache.stats c in
        Alcotest.(check (list int))
          "entries, weight, capacity, hits, misses, evictions"
          [ 2; 2; 10_000; 2; 1; 0 ]
          Cache.[ s.entries; s.weight; s.capacity; s.hits; s.misses; s.evictions ]);
    Alcotest.test_case "add replaces a key's value and weight" `Quick
      (fun () ->
        let c =
          Cache.create ~shards:1 ~capacity:1000 ~weight:(fun _ v -> v) ()
        in
        Cache.add c "k" 100;
        Cache.add c "k" 300;
        check "new value" true (Cache.find c "k" = Some 300);
        let s = Cache.stats c in
        Alcotest.(check (list int))
          "entries, weight" [ 1; 300 ] Cache.[ s.entries; s.weight ]);
    Alcotest.test_case "capacity 0 disables storage entirely" `Quick (fun () ->
        let c =
          Cache.create ~capacity:0 ~weight:(fun _ _ -> 1) ()
        in
        Cache.add c "k" 1;
        check "nothing stored" true (Cache.find c "k" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol parsing                                                    *)
(* ------------------------------------------------------------------ *)

let parse s =
  match Json.of_string s with
  | Ok j -> Protocol.parse_request j
  | Error m -> Alcotest.failf "test frame is not JSON: %s" m

let protocol_tests =
  [
    Alcotest.test_case "well-formed classify parses" `Quick (fun () ->
        match parse {|{"id":7,"op":"classify","formula":"[] p","fuel":9}|} with
        | Ok r ->
            check "id" true (r.Protocol.id = Json.Int 7);
            check "fuel" true (r.Protocol.fuel = Some 9)
        | Error _ -> Alcotest.fail "should parse");
    Alcotest.test_case "rejects carry the frame's id" `Quick (fun () ->
        List.iter
          (fun (s, code) ->
            match parse s with
            | Ok _ -> Alcotest.failf "accepted %s" s
            | Error (_, c, _) -> Alcotest.(check string) "code" code c)
          [
            ({|{"id":1}|}, "invalid_request");
            ({|{"id":1,"op":"classify"}|}, "invalid_request");
            ({|{"id":1,"op":"launch"}|}, "invalid_request");
            ({|{"id":1,"op":"lint","specs":"no"}|}, "invalid_request");
          ];
        (* "engine" is no request field: like any unknown member it is
           ignored, and the frame keys the cache as the frame without it *)
        match
          ( parse {|{"id":1,"op":"classify","formula":"[] p","engine":"quantum"}|},
            parse {|{"id":1,"op":"classify","formula":"[] p"}|} )
        with
        | Ok r, Ok r' ->
            let key = Protocol.cache_key r in
            check "same cache key" true
              (key <> None && key = Protocol.cache_key r')
        | _ -> Alcotest.fail "an unknown member rejected the frame");
    Alcotest.test_case "cache keys: stable, distinct, absent for ops" `Quick
      (fun () ->
        let k s =
          match parse s with
          | Ok r -> Protocol.cache_key r
          | Error _ -> Alcotest.fail "parse"
        in
        let a = k {|{"op":"classify","formula":"[] p"}|} in
        let b = k {|{"op":"classify","formula":"[] p","fuel":3}|} in
        let c = k {|{"op":"classify","formula":"<> p"}|} in
        check "budget excluded" true (a = b && a <> None);
        check "formula included" true (a <> c);
        check "ping uncached" true (k {|{"op":"ping"}|} = None));
  ]

(* ------------------------------------------------------------------ *)
(* Daemon, over a real socket                                          *)
(* ------------------------------------------------------------------ *)

open Serve_harness

let recv_json ic =
  match Json.of_string (input_line ic) with
  | Ok j -> j
  | Error m -> Alcotest.failf "daemon sent non-JSON: %s" m

let status j =
  match Option.bind (Json.member "status" j) Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.fail "reply without status"

let corpus =
  [|
    "[] p"; "<> p"; "[] p & <> q"; "[] p | <> q"; "[]<> p"; "<>[] p";
    "[]<> p | <>[] q"; "[] (p -> <> q)"; "p U q";
    "([] <> p -> [] <> q) & ([] <> q -> [] <> p)";
  |]

let chaos_test () =
  let cfg =
    { Daemon.default_config with Daemon.jobs = 2; max_inflight = 64;
      debug_ops = true; cache_mb = 4 }
  in
  with_daemon cfg @@ fun port ->
  let st = Random.State.make [| 0xC4A05 |] in
  let n = 200 in
  let fd, ic, oc = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* ~20% injected trips (small ticks, so they really fire), ~15%
     malformed frames; every frame — well-formed or not — must come
     back as exactly one JSON reply *)
  let tracked = Hashtbl.create n in
  let garbage = ref 0 in
  for i = 1 to n do
    let r = Random.State.float st 1.0 in
    if r < 0.15 then begin
      incr garbage;
      send oc
        (match Random.State.int st 3 with
        | 0 -> "{\"op\":"
        | 1 -> "p U q, probably"
        | _ -> "[1,2,3]")
    end
    else begin
      let f = corpus.(Random.State.int st (Array.length corpus)) in
      let base =
        [ ("id", Json.Int i); ("op", Json.String "classify");
          ("formula", Json.String f) ]
      in
      let base =
        if r < 0.15 +. 0.25 then
          base @ [ ("inject_trip_at", Json.Int (1 + Random.State.int st 100)) ]
        else base
      in
      Hashtbl.replace tracked i ();
      send oc (Json.to_string (Json.Obj base))
    end
  done;
  let degraded = ref 0 and null_ids = ref 0 in
  for _ = 1 to n do
    let j = recv_json ic in
    (match status j with "degraded" -> incr degraded | _ -> ());
    match Option.bind (Json.member "id" j) Json.to_int_opt with
    | Some id ->
        check "reply id was sent and not yet answered" true
          (Hashtbl.mem tracked id);
        Hashtbl.remove tracked id
    | None -> incr null_ids
  done;
  Alcotest.(check int) "every well-formed request answered" 0
    (Hashtbl.length tracked);
  Alcotest.(check int) "every garbage frame rejected" !garbage !null_ids;
  check "some injected trips degraded a verdict" true (!degraded > 0)

let shed_test () =
  let cfg =
    { Daemon.default_config with Daemon.jobs = 1; max_inflight = 2;
      debug_ops = true }
  in
  with_daemon cfg @@ fun port ->
  let fd, ic, oc = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* one slow request occupies the single worker; a burst behind it
     overflows the 2-slot gate and must shed, not queue *)
  send oc {|{"id":0,"op":"spin","ms":300}|};
  let n = 20 in
  for i = 1 to n do
    send oc
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.String "classify");
              ("formula", Json.String "[] p") ]))
  done;
  let shed = ref 0 in
  for _ = 0 to n do
    let j = recv_json ic in
    if status j = "shed" then begin
      incr shed;
      match
        Option.bind (Json.member "error" j) (fun e ->
            Option.bind (Json.member "code" e) Json.to_string_opt)
      with
      | Some "overloaded" -> ()
      | _ -> Alcotest.fail "shed reply must carry code overloaded"
    end
  done;
  check "burst above the gate shed" true (!shed > 0)

let watchdog_test () =
  let cfg =
    { Daemon.default_config with Daemon.jobs = 1; debug_ops = true;
      max_timeout_ms = 100. }
  in
  with_daemon cfg @@ fun port ->
  let fd, ic, oc = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* [spin] burns wall-clock without ever polling its budget: only the
     watchdog can answer this request *)
  let t0 = Unix.gettimeofday () in
  send oc {|{"id":1,"op":"spin","ms":3000,"timeout_ms":50}|};
  let j = recv_json ic in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "forced error" "error" (status j);
  (match
     Option.bind (Json.member "error" j) (fun e ->
         Option.bind (Json.member "code" e) Json.to_string_opt)
   with
  | Some "budget_exceeded" -> ()
  | c ->
      Alcotest.failf "expected budget_exceeded, got %s"
        (Option.value c ~default:"<none>"));
  (* answered by the deadline + watchdog grace, far before the spin ends *)
  check "forced well before the spin finished" true (dt < 2.5);
  (* the replacement worker keeps the daemon serving *)
  send oc {|{"id":2,"op":"ping"}|};
  Alcotest.(check string) "still serving" "ok" (status (recv_json ic))

let bounded_cache_test () =
  let cfg =
    { Daemon.default_config with Daemon.jobs = 2; max_inflight = 8;
      cache_mb = 1 }
  in
  with_daemon cfg @@ fun port ->
  let fd, ic, oc = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* distinct formulas, so every request is a genuine cache insert *)
  let n = 150 in
  let outstanding = ref 0 in
  for i = 1 to n do
    let f =
      Printf.sprintf "%s (p %s q)"
        (String.concat "" (List.init (1 + (i mod 7)) (fun _ -> "<> ")))
        (if i mod 2 = 0 then "&" else "|")
    in
    send oc
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.String "classify");
              ("formula", Json.String f) ]));
    incr outstanding;
    if !outstanding >= 8 then begin
      ignore (recv_json ic);
      decr outstanding
    end
  done;
  while !outstanding > 0 do
    ignore (recv_json ic);
    decr outstanding
  done;
  send oc {|{"id":0,"op":"stats"}|};
  let j = recv_json ic in
  let caches =
    match Json.member "caches" j with
    | Some c -> c
    | None -> Alcotest.fail "stats without caches"
  in
  let caches =
    match caches with
    | Json.Obj fields -> fields
    | _ -> Alcotest.fail "caches is not an object"
  in
  Alcotest.(check (list string))
    "the caches stats reports" [ "response" ]
    (List.map fst caches);
  List.iter
    (fun (which, c) ->
      let geti k = Option.bind (Json.member k c) Json.to_int_opt in
      let w = Option.value (geti "weight") ~default:max_int in
      let cap = Option.value (geti "capacity") ~default:0 in
      Alcotest.(check int)
        (which ^ " holds all of --cache-mb")
        (cfg.Daemon.cache_mb * 1024 * 1024)
        cap;
      check (which ^ " within bound") true (w <= cap))
    caches

let refine_progress_test () =
  let cfg =
    { Daemon.default_config with Daemon.jobs = 1; max_inflight = 64;
      debug_ops = true; refine_every = 2 }
  in
  with_daemon cfg @@ fun port ->
  let fd, ic, oc = connect port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a genuinely fuel-starved classify: answered immediately with the
     degraded interval, and an escalated refinement is queued *)
  send oc
    {|{"id":1,"op":"classify","formula":"([] <> p -> [] <> q) & ([] <> q -> [] <> p)","fuel":5}|};
  (* a convoy of spins keeps the single worker's client queue non-empty
     for the whole observation window: under the old strict priority
     (refinement only when the client queue is dry) the escalation
     would starve until the convoy drained *)
  let spins = 10 in
  for i = 2 to spins + 1 do
    send oc (Printf.sprintf {|{"id":%d,"op":"spin","ms":30}|} i)
  done;
  Alcotest.(check string) "starved classify degraded" "degraded"
    (status (recv_json ic));
  (* after four spin replies the refine_every = 2 quota must have let
     the refinement through, with at least five spins still queued —
     strict priority would report refine_runs = 0 here.  [stats] is
     answered inline by the reader, never queued behind the convoy. *)
  for _ = 1 to 4 do
    ignore (recv_json ic)
  done;
  send oc {|{"id":0,"op":"stats"}|};
  let refine_runs = ref (-1) and drained = ref 0 in
  while !refine_runs < 0 do
    let j = recv_json ic in
    match Json.member "counters" j with
    | Some cs ->
        refine_runs :=
          Option.value ~default:(-1)
            (Option.bind (Json.member "refine_runs" cs) Json.to_int_opt)
    | None -> incr drained
  done;
  check "refinement ran while client work was queued" true (!refine_runs >= 1);
  for _ = !drained + 1 to spins - 4 do
    ignore (recv_json ic)
  done

let daemon_tests =
  [
    Alcotest.test_case "chaos: trips and garbage never kill the loop" `Slow
      chaos_test;
    Alcotest.test_case "refinement makes progress under sustained load" `Slow
      refine_progress_test;
    Alcotest.test_case "overload sheds with an explicit rejection" `Slow
      shed_test;
    Alcotest.test_case "watchdog force-fails a non-cooperative request" `Slow
      watchdog_test;
    Alcotest.test_case "caches stay under --cache-mb" `Slow bounded_cache_test;
  ]

let () =
  Alcotest.run "serve"
    [
      ( "json",
        json_unit_tests
        @ List.map QCheck_alcotest.to_alcotest [ json_roundtrip; json_never_raises ]
      );
      ("cache", cache_tests);
      ("protocol", protocol_tests);
      ("daemon", daemon_tests);
    ]

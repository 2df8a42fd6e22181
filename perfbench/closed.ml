(* The closed loop shared by the classify, spec and large workloads: one
   caller runs a fixed list of operations, each after the previous one
   answered.

   A run makes one counted pass, then timed passes.  The counted pass
   checks every answer and sums the budget ticks and allocated words;
   the inputs are fixed by the seed, so these counts repeat exactly.  It
   also warms the caches, since a user of a long-lived process finds
   them warm.  Then a fixed number of timed passes, each answer checked
   against the counted pass's; the caller derives the number from
   --seconds, so that cpu_s measures a fixed amount of work.

   Each operation's time is scaled to reference speed by the speed
   samples taken around it (Meter.Speed), which cancels the shared
   machine's swings between states that last seconds or minutes, and
   then taken as its median over the timed passes.  Throughput is
   operations per pass over the sum of those medians; the median
   latency is the median of them.  The record line carries the same
   figures in plain wall time beside them. *)

type answer = {
  rendered : string;  (** the user-visible output, compared across passes *)
  exact : bool option;  (** [Some] for answers that carry a verdict *)
  spent : int;  (** budget ticks *)
  problem : string option;  (** a failed check *)
}

type op = { label : string; kind : string; run : unit -> answer }

type result = {
  ops : int;  (** operations per pass *)
  attempted : int;
  failed : int;
  exact_share : float;
  ticks : int;
  alloc_words : float;
  passes : float list;  (** timed pass durations, s *)
  latencies : (string * float list) list;  (** per kind, reference-speed s *)
  op_medians : float list;  (** each operation's median reference-speed time over the passes, s *)
  raw_medians : float list;  (** the same, in wall time *)
  cpu : float;  (** process CPU seconds in the timed phase, at reference speed *)
  cpu_raw : float;  (** the same as measured, speed samples included *)
  speed_samples : float list;  (** the speed kernel's times, s *)
}

type counts = {
  answers : string array;  (** the counted pass's rendered answers *)
  failed0 : int;
  exact : int;
  verdicts : int;
  ticks : int;
  alloc : float;
}

let counted ops =
  let failed = ref 0 and exact = ref 0 and verdicts = ref 0 and ticks = ref 0 in
  let answers, alloc =
    Meter.allocated @@ fun () ->
    List.map
      (fun op ->
        let a = op.run () in
        ticks := !ticks + a.spent;
        (match a.exact with
        | Some e ->
            incr verdicts;
            if e then incr exact
        | None -> ());
        (match a.problem with
        | Some reason ->
            incr failed;
            Checks.say_failure ~input:op.label reason
        | None -> ());
        a.rendered)
      ops
  in
  { answers = Array.of_list answers; failed0 = !failed; exact = !exact; verdicts = !verdicts; ticks = !ticks; alloc }

(* Seconds of operations between two speed samples. *)
let sample_gap = 0.04

(* [between] runs before each timed pass, outside its timing, and then a
   full major collection, so that every pass starts from the same heap
   (the counted pass leaves one of some hundred MiB on large).  A pass
   takes speed samples (Meter.Speed) before its first operation, after
   each operation that ends [sample_gap] or more past the last sample,
   and after its last operation: one, and one more for each tenth of a
   second since the last, up to eight, so that long operations have
   samples around them too.  Each operation's time is then scaled by
   the samples taken near it. *)
let timed ?(between = ignore) ~passes:n c ops =
  let ops_a = Array.of_list ops in
  let failed = ref c.failed0 and attempted = ref (Array.length ops_a) in
  let passes = ref [] and samples = ref [] and spans = ref [] in
  let raw_op = Array.make (Array.length ops_a) [] in
  let last_at = ref 0. in
  let sample () =
    let reps = min 8 (1 + int_of_float ((Meter.now () -. !last_at) /. 0.1)) in
    for _ = 1 to reps do
      let k = Meter.Speed.sample () in
      samples := (Meter.now () -. (k /. 2.), k) :: !samples
    done;
    last_at := Meter.now ()
  in
  let cpu = ref 0. in
  for _ = 1 to n do
    between ();
    Gc.full_major ();
    let cpu0 = Meter.cpu_s () in
    last_at := Meter.now ();
    sample ();
    let pass = ref 0. in
    Array.iteri
      (fun i op ->
        let t0 = Meter.now () in
        let a = op.run () in
        let t1 = Meter.now () in
        let dt = t1 -. t0 in
        pass := !pass +. dt;
        raw_op.(i) <- dt :: raw_op.(i);
        spans := (i, t0, t1) :: !spans;
        incr attempted;
        if a.rendered <> c.answers.(i) then begin
          incr failed;
          Checks.say_failure ~input:op.label "answer differs from the counted pass"
        end;
        if Meter.now () -. !last_at >= sample_gap then sample ())
      ops_a;
    if Meter.now () > !last_at then sample ();
    cpu := !cpu +. (Meter.cpu_s () -. cpu0);
    passes := !pass :: !passes
  done;
  let samples = List.rev !samples in
  let factor = Meter.Speed.factor_of samples in
  let per_op = Array.make (Array.length ops_a) [] and lat = Hashtbl.create 4 in
  List.iter
    (fun (i, t0, t1) ->
      let dt = (t1 -. t0) *. factor t0 t1 in
      per_op.(i) <- dt :: per_op.(i);
      let kind = ops_a.(i).kind in
      Hashtbl.replace lat kind (dt :: Option.value ~default:[] (Hashtbl.find_opt lat kind)))
    !spans;
  let speeds = List.map snd samples in
  {
    ops = Array.length ops_a;
    attempted = !attempted;
    failed = !failed;
    exact_share = (if c.verdicts = 0 then 1. else float c.exact /. float c.verdicts);
    ticks = c.ticks;
    alloc_words = c.alloc;
    passes = !passes;
    latencies = Hashtbl.fold (fun k v acc -> (k, v) :: acc) lat [] |> List.sort compare;
    op_medians = Array.to_list (Array.map Meter.median per_op);
    raw_medians = Array.to_list (Array.map Meter.median raw_op);
    (* the samples ran on this domain alone, at one CPU second per
       second *)
    cpu = (!cpu -. List.fold_left ( +. ) 0. speeds) *. Meter.Speed.nominal /. Meter.median speeds;
    cpu_raw = !cpu;
    speed_samples = speeds;
  }

let run ?between ~passes ops = timed ?between ~passes (counted ops) ops

(* Timed passes for a run of about [seconds], given the time one pass
   took on the machine the workload was tuned on; at least three, so a
   median exists. *)
let passes_for ~pass_s seconds = max 3 (int_of_float (Float.round (seconds /. pass_s)))

let throughput ops medians = float ops /. List.fold_left ( +. ) 0. medians

(* The end-to-end metric set of BENCHMARK.json, for a closed loop; the
   times are at reference speed. *)
let metrics ~setup r =
  [
    Meter.m "setup_s" "s" setup;
    Meter.m "throughput_rps" "1/s" (throughput r.ops r.op_medians);
    Meter.m "latency_p50_ms" "ms" (Meter.median r.op_medians *. 1000.);
    Meter.m "cpu_s" "s" r.cpu;
    Meter.m "peak_rss_mb" "MiB" (Meter.peak_rss_mb ());
    Meter.m "ok_share" "share" (float (r.attempted - r.failed) /. float r.attempted);
    Meter.m "exact_share" "share" r.exact_share;
    Meter.m "ticks_m" "Mticks" (float r.ticks /. 1e6);
    Meter.m "alloc_mwords" "Mwords" (r.alloc_words /. 1e6);
  ]

(* Percentiles with their sample counts, overall and per kind. *)
let extra r =
  let all = List.concat_map snd r.latencies in
  Meter.latency_metrics all
  @ Meter.m "latency_samples" "count" (float (List.length all))
    :: Meter.m "passes" "count" (float (List.length r.passes))
    :: Meter.m "pass_min_s" "s" (List.fold_left Float.min infinity r.passes)
    :: Meter.m "pass_max_s" "s" (List.fold_left Float.max 0. r.passes)
    :: Meter.m "wall.throughput_rps" "1/s" (throughput r.ops r.raw_medians)
    :: Meter.m "wall.latency_p50_ms" "ms" (Meter.median r.raw_medians *. 1000.)
    :: Meter.m "wall.cpu_s" "s" r.cpu_raw
    :: Meter.m "speed.samples" "count" (float (List.length r.speed_samples))
    :: Meter.m "speed.kernel_p50_ms" "ms" (Meter.median r.speed_samples *. 1000.)
    :: (if List.length r.latencies < 2 then []
        else
          List.concat_map
            (fun (kind, xs) ->
              Meter.m (kind ^ ".latency_samples") "count" (float (List.length xs))
              :: Meter.m (kind ^ ".latency_mean_ms") "ms"
                   (List.fold_left ( +. ) 0. xs *. 1000. /. float (List.length xs))
              :: Meter.latency_metrics ~prefix:(kind ^ ".latency") xs)
            r.latencies)

(* Clocks, order statistics, process counters and the result record. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float n)) - 1)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* A percentile is reported only when at least ten samples lie beyond
   it, so its value never rests on a handful of requests. *)
let reportable n p = float n *. (1. -. p) >= 10.

(* OCaml words allocated by the calling domain. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [f ()] with the words it allocated.  Emptying the minor heap first
   keeps what earlier code left there out of the count, so the count
   repeats exactly for the same work. *)
let allocated f =
  Gc.minor ();
  let w0 = alloc_words () in
  let x = f () in
  (x, alloc_words () -. w0)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let proc_field path key =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      match input_line ic with
      | l when String.length l > String.length key
               && String.sub l 0 (String.length key) = key ->
          Scanf.sscanf
            (String.sub l (String.length key) (String.length l - String.length key))
            " %f" Fun.id
      | _ -> go ()
      | exception End_of_file -> nan
    in
    go ()
  with Sys_error _ -> nan

(* Peak resident set of a process in MiB, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  proc_field (Printf.sprintf "/proc/%s/status" pid) "VmHWM:" /. 1024.

(* CPU seconds (user + system) of another process, from /proc. *)
let proc_cpu_s pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
    let l = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
    let f = Array.of_list (String.split_on_char ' ' rest) in
    (* fields 14 and 15 of stat(5), counted from the state field (3) *)
    (float_of_string f.(11) +. float_of_string f.(12)) /. 100.
  with _ -> nan

let nproc () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* The machine's speed                                                 *)
(* ------------------------------------------------------------------ *)

(* A shared machine runs the same work at anywhere from 1x to 2.7x its
   fastest time, in states that last from a second to minutes, so a
   wall time taken alone says as much about the neighbours as about
   the program.  The benchmark therefore runs a fixed kernel of its own
   between operations and reports times at reference speed: a time
   measured while the kernel took [k] seconds is scaled by
   [nominal /. k].  The kernel is the two kinds of work the program
   does: hash-table updates and lookups over short-lived lists, and
   scattered reads and writes over a working set larger than a core's
   cache.  Its young garbage dies before it is promoted and its working
   set lies outside the OCaml heap, so the program's heap does not
   change its cost.  It is the benchmark's code, so a change to the
   program does not move it. *)
module Speed = struct
  (* about the kernel's median seconds on 2 shared cores, which moved
     between 4.0 and 6.4 ms from run to run, so that reference-speed
     times read like wall times there *)
  let nominal = 5.0e-3

  (* made on first use, so that the set-up probes do not pay for it *)
  let field =
    lazy
      (let f = Bigarray.(Array1.create int8_unsigned c_layout (16 lsl 20)) in
       Bigarray.Array1.fill f 0;
       f)

  let kernel () =
    let h = Hashtbl.create 16 and acc = ref 0 in
    for i = 1 to 20_000 do
      let k = i * 7919 mod 5003 in
      Hashtbl.replace h k [ k; i; k + i ];
      match Hashtbl.find_opt h (k * 31 mod 5003) with
      | Some l -> acc := !acc + List.length l
      | None -> ()
    done;
    let field = Lazy.force field and x = ref 12345 in
    for _ = 1 to 60_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      let i = !x land (Bigarray.Array1.dim field - 1) in
      let v = Bigarray.Array1.unsafe_get field i in
      Bigarray.Array1.unsafe_set field i ((v + !acc) land 255);
      acc := !acc + v
    done;
    !acc

  (* Seconds one run of the kernel takes now. *)
  let sample () =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    now () -. t0

  (* Wall time of [f], at reference speed, with its raw wall time. *)
  let time f =
    let k0 = sample () in
    let x, dt = time f in
    let k1 = sample () in
    (x, dt *. nominal /. ((k0 +. k1) /. 2.), dt)

  (* Seconds around a stretch of time whose samples set its speed. *)
  let window = 0.5

  (* Given samples as (when taken, seconds) in time order, the factor
     that turns the time of a stretch [t0, t1] into reference-speed time:
     [nominal] over the median of the samples taken within [window] of
     it, which the caller makes sure are not none. *)
  let factor_of samples =
    let at = Array.of_list (List.map fst samples) and k = Array.of_list (List.map snd samples) in
    let first_from t =
      let lo = ref 0 and hi = ref (Array.length at) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if at.(mid) < t then lo := mid + 1 else hi := mid
      done;
      !lo
    in
    fun t0 t1 ->
      let a = first_from (t0 -. window) and b = first_from (t1 +. window) in
      nominal /. median (Array.to_list (Array.sub k a (b - a)))
end

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Latency percentiles of a sample set in ms, each with its sample
   count, for the record line; only percentiles with ten samples beyond
   them appear. *)
let latency_metrics ?(prefix = "latency") samples_s =
  let a = sorted samples_s in
  let n = Array.length a in
  List.filter_map
    (fun (tag, p) ->
      if n > 0 && reportable n p then
        Some (m (Printf.sprintf "%s_%s_ms" prefix tag) "ms" (percentile a p *. 1000.))
      else None)
    [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** the end-to-end set named in BENCHMARK.json *)
  extra : metric list;  (** everything else measured, for the record line *)
}

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
             (json_float x.value) (json_string x.unit_))
         ms)
  ^ "}"

(* Every metric has a finite value and a unit, or the run is wrong. *)
let well_formed ms =
  List.for_all (fun x -> x.unit_ <> "" && Float.is_finite x.value) ms

(* ------------------------------------------------------------------ *)
(* Per-layer accumulators for the traced run                           *)
(* ------------------------------------------------------------------ *)

(* Named sums in first-use order.  [timed acc name f] adds the wall
   time of [f] to [name.ms] and the words it allocated to
   [name.mwords]. *)
module Acc = struct
  type t = { sums : (string, float ref) Hashtbl.t; mutable order : (string * string) list }

  let create () = { sums = Hashtbl.create 32; order = [] }

  let add t ?(unit_ = "count") name v =
    match Hashtbl.find_opt t.sums name with
    | Some r -> r := !r +. v
    | None ->
        Hashtbl.add t.sums name (ref v);
        t.order <- (name, unit_) :: t.order

  let get t name = match Hashtbl.find_opt t.sums name with Some r -> !r | None -> 0.

  let timed t name f =
    let w0 = alloc_words () and t0 = now () in
    let finish () =
      add t ~unit_:"ms" (name ^ ".ms") ((now () -. t0) *. 1000.);
      add t ~unit_:"Mwords" (name ^ ".mwords") ((alloc_words () -. w0) /. 1e6)
    in
    match f () with
    | x ->
        finish ();
        x
    | exception e ->
        finish ();
        raise e

  let metrics ~prefix t =
    List.rev_map (fun (name, unit_) -> m (prefix ^ "." ^ name) unit_ (get t name)) t.order
end

(* Minor and major collections while [f] runs. *)
let with_gc acc f =
  let s0 = Gc.quick_stat () in
  let x = f () in
  let s1 = Gc.quick_stat () in
  Acc.add acc "gc.minor" (float (s1.Gc.minor_collections - s0.Gc.minor_collections));
  Acc.add acc "gc.major" (float (s1.Gc.major_collections - s0.Gc.major_collections));
  x

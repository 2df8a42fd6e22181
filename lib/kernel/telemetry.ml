type span_tree = { name : string; elapsed_ns : float; children : span_tree list }

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
}

type report = {
  spans : span_tree list;
  counters : (string * int) list;
  histograms : (string * histogram) list;
}

(* Mutable histogram cell: power-of-two buckets indexed by the bit
   length of the (truncated) observation, so bucket [i] holds values in
   (2^{i-1} - 1, 2^i - 1]. *)
type hist = {
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
  hbuckets : int array;  (* length 63 *)
}

type frame = {
  fname : string;
  fstart : float;
  fdepth : int;
  mutable fchildren : span_tree list;  (* reversed *)
}

type sink = Noop | Memory | Lines of (string -> unit)

type t = {
  sink : sink;
  mutable stack : frame list;
  mutable roots : span_tree list;  (* reversed *)
  cnt : (string, int ref) Hashtbl.t;
  hst : (string, hist) Hashtbl.t;
}

let disabled =
  {
    sink = Noop;
    stack = [];
    roots = [];
    cnt = Hashtbl.create 1;
    hst = Hashtbl.create 1;
  }

let make sink =
  { sink; stack = []; roots = []; cnt = Hashtbl.create 32; hst = Hashtbl.create 8 }

let collector () = make Memory

let jsonl write = make (Lines write)

let enabled t = match t.sink with Noop -> false | Memory | Lines _ -> true

(* ------------------------------------------------------------------ *)
(* Exception-safe shared line writers                                  *)
(* ------------------------------------------------------------------ *)

type line_writer = {
  oc : out_channel;
  wlock : Mutex.t;
  mutable closed : bool;
  mutable torn : bool;
      (* a write raised midway: partial bytes may sit on the stream, so
         the next successful record is prefixed by a newline and a
         truncated-marker line to resynchronise consumers *)
  mutable dropped : int;
}

let wlocked w f =
  Mutex.lock w.wlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.wlock) f

let close_lines w =
  wlocked w (fun () ->
      if not w.closed then begin
        w.closed <- true;
        (try close_out w.oc (* flushes *) with Sys_error _ -> ())
      end)

let line_writer oc =
  let w = { oc; wlock = Mutex.create (); closed = false; torn = false; dropped = 0 } in
  (* a raising entry point or an [exit] mid-request must not leak the
     channel open with a half-flushed buffer *)
  at_exit (fun () -> close_lines w);
  w

let write_line w line =
  wlocked w (fun () ->
      if w.closed then w.dropped <- w.dropped + 1
      else
        try
          if w.torn then begin
            output_char w.oc '\n';
            output_string w.oc "{\"type\":\"truncated\"}\n";
            w.torn <- false
          end;
          output_string w.oc line;
          output_char w.oc '\n';
          (* flush per record: the request boundary is durable, and a
             crash loses at most the line being written *)
          flush w.oc
        with Sys_error _ ->
          w.torn <- true;
          w.dropped <- w.dropped + 1)

let lines_dropped w = wlocked w (fun () -> w.dropped)

let jsonl_channel w = make (Lines (fun line -> write_line w line))

let now () = Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* JSON-lines emission                                                 *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit_span t ~depth (s : span_tree) =
  match t.sink with
  | Lines write ->
      write
        (Printf.sprintf
           "{\"type\":\"span\",\"name\":\"%s\",\"depth\":%d,\"elapsed_ns\":%.0f}"
           (json_escape s.name) depth s.elapsed_ns)
  | Noop | Memory -> ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let close_frame t fr =
  let elapsed_ns = (now () -. fr.fstart) *. 1e9 in
  let s = { name = fr.fname; elapsed_ns; children = List.rev fr.fchildren } in
  (* pop down to (and including) fr; inner frames can only be left open
     by a non-local exit that skipped their own closer, which [span]'s
     exception safety prevents, but self-heal rather than corrupt *)
  let rec pop () =
    match t.stack with
    | [] -> ()
    | f :: rest ->
        t.stack <- rest;
        if f != fr then pop ()
  in
  pop ();
  (match t.stack with
  | parent :: _ -> parent.fchildren <- s :: parent.fchildren
  | [] -> t.roots <- s :: t.roots);
  emit_span t ~depth:fr.fdepth s

let span t name f =
  match t.sink with
  | Noop -> f ()
  | Memory | Lines _ ->
      let fr =
        { fname = name; fstart = now (); fdepth = List.length t.stack; fchildren = [] }
      in
      t.stack <- fr :: t.stack;
      (match f () with
      | v ->
          close_frame t fr;
          v
      | exception e ->
          close_frame t fr;
          raise e)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let add t name n =
  match t.sink with
  | Noop -> ()
  | Memory | Lines _ -> (
      match Hashtbl.find_opt t.cnt name with
      | Some r -> r := !r + n
      | None -> Hashtbl.add t.cnt name (ref n))

let incr t name = add t name 1

let counter t name =
  match Hashtbl.find_opt t.cnt name with Some r -> !r | None -> 0

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let bucket_index v =
  if v <= 0. then 0
  else begin
    let n = int_of_float v in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    min 62 (bits n 0)
  end

let observe t name v =
  match t.sink with
  | Noop -> ()
  | Memory | Lines _ ->
      let h =
        match Hashtbl.find_opt t.hst name with
        | Some h -> h
        | None ->
            let h =
              {
                hcount = 0;
                hsum = 0.;
                hmin = infinity;
                hmax = neg_infinity;
                hbuckets = Array.make 63 0;
              }
            in
            Hashtbl.add t.hst name h;
            h
      in
      h.hcount <- h.hcount + 1;
      h.hsum <- h.hsum +. v;
      if v < h.hmin then h.hmin <- v;
      if v > h.hmax then h.hmax <- v;
      let i = bucket_index v in
      h.hbuckets.(i) <- h.hbuckets.(i) + 1

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)
(* ------------------------------------------------------------------ *)

(* Fold a completed child report into [t], used by the pool to merge
   per-task collectors on join.  Spans land under the innermost open
   frame (or as roots), counters add, histogram cells are rebuilt from
   the reported power-of-two bucket upper bounds (2^i - 1 maps back to
   bucket i exactly).  Deterministic: the result depends only on the
   order of [absorb] calls, which the pool fixes to task order. *)
let absorb t (r : report) =
  match t.sink with
  | Noop -> ()
  | Memory | Lines _ ->
      let depth = List.length t.stack in
      List.iter (fun s -> emit_span t ~depth s) r.spans;
      (match t.stack with
      | fr :: _ -> fr.fchildren <- List.rev_append r.spans fr.fchildren
      | [] -> t.roots <- List.rev_append r.spans t.roots);
      List.iter (fun (name, n) -> add t name n) r.counters;
      List.iter
        (fun (name, (h : histogram)) ->
          let cell =
            match Hashtbl.find_opt t.hst name with
            | Some cell -> cell
            | None ->
                let cell =
                  {
                    hcount = 0;
                    hsum = 0.;
                    hmin = infinity;
                    hmax = neg_infinity;
                    hbuckets = Array.make 63 0;
                  }
                in
                Hashtbl.add t.hst name cell;
                cell
          in
          cell.hcount <- cell.hcount + h.count;
          cell.hsum <- cell.hsum +. h.sum;
          if h.count > 0 then begin
            if h.min < cell.hmin then cell.hmin <- h.min;
            if h.max > cell.hmax then cell.hmax <- h.max
          end;
          List.iter
            (fun (upper, n) ->
              let i = bucket_index upper in
              cell.hbuckets.(i) <- cell.hbuckets.(i) + n)
            h.buckets)
        r.histograms

(* ------------------------------------------------------------------ *)
(* The ambient handle                                                  *)
(* ------------------------------------------------------------------ *)

(* Domain-local, so pool workers each get their own ambient slot: a
   worker installing its per-task collector can never clobber the
   orchestrating domain's handle.  Within one domain the discipline is
   unchanged (dynamic scoping via [with_ambient]). *)
let ambient_key = Domain.DLS.new_key (fun () -> ref disabled)

let ambient () = !(Domain.DLS.get ambient_key)

let with_ambient t f =
  let cell = Domain.DLS.get ambient_key in
  let old = !cell in
  cell := t;
  Fun.protect ~finally:(fun () -> cell := old) f

(* ------------------------------------------------------------------ *)
(* Reading back                                                        *)
(* ------------------------------------------------------------------ *)

let histogram_of h =
  let buckets = ref [] in
  for i = Array.length h.hbuckets - 1 downto 0 do
    if h.hbuckets.(i) > 0 then
      let upper = if i = 0 then 0. else (2. ** float_of_int i) -. 1. in
      buckets := (upper, h.hbuckets.(i)) :: !buckets
  done;
  {
    count = h.hcount;
    sum = h.hsum;
    min = (if h.hcount = 0 then 0. else h.hmin);
    max = (if h.hcount = 0 then 0. else h.hmax);
    buckets = !buckets;
  }

let sorted_bindings tbl value =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, value v) :: acc) tbl [])

let report t =
  {
    spans = List.rev t.roots;
    counters = sorted_bindings t.cnt (fun r -> !r);
    histograms = sorted_bindings t.hst histogram_of;
  }

let span_totals r =
  let tbl = Hashtbl.create 16 in
  let rec go s =
    let cur = try Hashtbl.find tbl s.name with Not_found -> 0. in
    Hashtbl.replace tbl s.name (cur +. s.elapsed_ns);
    List.iter go s.children
  in
  List.iter go r.spans;
  sorted_bindings tbl Fun.id

let reset t =
  t.stack <- [];
  t.roots <- [];
  Hashtbl.reset t.cnt;
  Hashtbl.reset t.hst

let flush t =
  match t.sink with
  | Noop | Memory -> ()
  | Lines write ->
      let r = report t in
      List.iter
        (fun (name, v) ->
          write
            (Printf.sprintf "{\"type\":\"counter\",\"name\":\"%s\",\"total\":%d}"
               (json_escape name) v))
        r.counters;
      List.iter
        (fun (name, h) ->
          write
            (Printf.sprintf
               "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%d,\"sum\":%.0f,\"min\":%.0f,\"max\":%.0f}"
               (json_escape name) h.count h.sum h.min h.max))
        r.histograms

(* ------------------------------------------------------------------ *)
(* Human-readable report                                               *)
(* ------------------------------------------------------------------ *)

let pp_ns ppf ns =
  if ns >= 1e9 then Format.fprintf ppf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Format.fprintf ppf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Format.fprintf ppf "%.1f us" (ns /. 1e3)
  else Format.fprintf ppf "%.0f ns" ns

let pp_report ppf r =
  let rec pp_span indent s =
    Format.fprintf ppf "  %s%-*s %a@," indent
      (max 1 (36 - String.length indent))
      s.name pp_ns s.elapsed_ns;
    List.iter (pp_span (indent ^ "  ")) s.children
  in
  Format.fprintf ppf "@[<v>telemetry@,";
  if r.spans <> [] then begin
    Format.fprintf ppf " spans:@,";
    List.iter (pp_span "") r.spans
  end;
  if r.counters <> [] then begin
    Format.fprintf ppf " counters:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-36s %d@," name v)
      r.counters
  end;
  if r.histograms <> [] then begin
    Format.fprintf ppf " histograms:@,";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "  %-36s n=%d min=%.0f max=%.0f mean=%.1f@," name
          h.count h.min h.max
          (if h.count = 0 then 0. else h.sum /. float_of_int h.count))
      r.histograms
  end;
  Format.fprintf ppf "@]"

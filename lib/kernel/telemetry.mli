(** Structured observability: nested timed spans, monotonic counters
    and value histograms, behind a pluggable sink.

    The system-wide companion of {!Budget}: where a budget bounds
    {e how much} work a procedure may do, telemetry records {e where}
    that work went.  Every layer the budget threads through — cycle
    enumeration, monoid saturation, rank search, tableau expansion,
    FTS state-space construction — also accepts a [?telemetry]
    handle and wraps its phases in {!span}s; the shared leaf kernels
    ({!Graph_kernel}, the [Automaton.successors] memo, the
    [Inclusion] search) report against the {e ambient} handle
    installed by the engine boundary, so one collector sees the whole
    run regardless of how deep the call started.

    {2 Cost discipline}

    The default handle is {!disabled}: every operation on it reduces
    to a load and a branch, like [Budget.tick] on an unlimited budget,
    so instrumentation is left enabled unconditionally in the hot
    paths.  No same-run measurement backs a bound on that overhead:
    [BENCH_obs.json] divides each timing by a pin recorded on another
    machine before the hooks existed, and reads 1.10–1.44 against its
    1.02 target, a figure that mixes machine and code.

    {2 Sinks}

    - {!disabled} — the no-op handle (the default everywhere);
    - {!collector} — retains spans/counters/histograms in memory for
      {!report};
    - {!jsonl} — additionally emits one JSON object per completed
      span (and, on {!flush}, per counter and histogram) through the
      supplied writer: the [hpt --trace-json FILE] format.

    {2 Span naming scheme}

    Dot-separated [layer.phase], lowercase: [classify.safety],
    [classify.rank_search], [cycles.enumerate], [monoid.saturate],
    [tableau.translate], [translate.of_canon], [fts.product],
    [engine.liveness].  Counters and histogram names follow the same
    convention ([automaton.successors.hit], [inclusion.pairs],
    [cycles.scc_size]).  See DESIGN.md, "Telemetry and profiling
    hooks". *)

type t
(** A telemetry handle: a sink plus the mutable span/counter state.
    Handles are not thread-safe (neither is the rest of the library). *)

val disabled : t
(** The no-op handle.  Every operation returns immediately after one
    branch; {!report} on it is empty.  The default for every
    [?telemetry] argument. *)

val collector : unit -> t
(** A fresh in-memory handle; read it back with {!report},
    {!counter} or {!span_totals}. *)

val jsonl : (string -> unit) -> t
(** [jsonl write] emits one JSON-lines record per completed span
    through [write] (one complete object per call, no trailing
    newline), {e and} retains everything in memory like {!collector}.
    Call {!flush} at the end to emit the counter and histogram
    records. *)

(** {2 Exception-safe shared line writers}

    A raw [out_channel] behind a [jsonl] sink has three failure modes
    in a long-lived concurrent process: two domains interleave partial
    lines, an exception mid-computation leaks the channel open (and
    its buffer unflushed), and a write failure (disk full, closed fd)
    crashes the computation that merely tried to log.  A
    {!line_writer} closes all three: every line is written whole under
    a mutex and flushed before the lock is released (a consumer
    tailing the file sees request-boundary-complete records); write
    failures are swallowed after marking the stream {e torn}, and the
    next successful write emits a [{"type":"truncated"}] marker on its
    own line so downstream parsers resynchronise instead of reading a
    glued partial record; {!close_lines} is idempotent, runs under the
    same mutex, and is also registered with [at_exit], so the channel
    is closed and flushed whether the process ends normally or via a
    raising entry point. *)

type line_writer

val line_writer : out_channel -> line_writer
(** Wrap a channel.  The caller must not write to [oc] directly
    afterwards. *)

val write_line : line_writer -> string -> unit
(** Write one complete record (no trailing newline in the argument)
    atomically, then flush.  Never raises: failures mark the stream
    torn and count against [lines_dropped]. *)

val close_lines : line_writer -> unit
(** Flush and close the underlying channel.  Idempotent; never
    raises.  Also installed via [at_exit] by {!line_writer}. *)

val lines_dropped : line_writer -> int
(** Records lost to write failures so far. *)

val jsonl_channel : line_writer -> t
(** {!jsonl} over {!write_line}: the hardened trace sink used by
    [hpt --trace-json] and the [hpt serve] access log. *)

val enabled : t -> bool
(** [false] exactly for {!disabled}. *)

(** {2 Recording} *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] times [f ()] as a span named [name], nested inside
    the innermost open span of [t].  Exception-safe: the span is
    closed (and recorded) whether [f] returns or raises — a
    [Budget.Tripped] flying through leaves a consistent trace. *)

val incr : t -> string -> unit
(** Add 1 to a counter (created at 0 on first use). *)

val add : t -> string -> int -> unit
(** Add [n] to a counter. *)

val observe : t -> string -> float -> unit
(** Record one value into a histogram (power-of-two buckets, plus
    count/sum/min/max). *)

(** {2 The ambient handle}

    Leaf kernels that cannot thread a handle through their signature
    ([Automaton.successors] is passed around as a bare [int -> int
    list]) report against the ambient handle.  The engine boundary
    installs its handle for the duration of each entry point; the
    default ambient is {!disabled}.  The slot is {e domain-local}
    ([Domain.DLS]): each pool worker sees its own ambient, so a task
    installing its per-task collector cannot clobber another domain's
    handle. *)

val ambient : unit -> t

val with_ambient : t -> (unit -> 'a) -> 'a
(** Install a handle, run, restore the previous one (also on
    exceptions). *)

(** {2 Reading back} *)

type span_tree = {
  name : string;
  elapsed_ns : float;
  children : span_tree list;  (** in completion order *)
}

type histogram = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
      (** [(upper_bound, n)] per non-empty power-of-two bucket: [n]
          observations were [<= upper_bound] (and above the previous
          bucket's bound) *)
}

type report = {
  spans : span_tree list;  (** completed top-level spans, in order *)
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * histogram) list;  (** sorted by name *)
}

val report : t -> report
(** Snapshot of everything recorded so far.  Spans still open (a
    [span] call in progress) are not included. *)

val counter : t -> string -> int
(** Current value of one counter; [0] if never touched. *)

val absorb : t -> report -> unit
(** [absorb t r] folds a completed child report into [t]: [r]'s
    top-level spans become children of [t]'s innermost open span (or
    new roots), counters add, histograms merge bucket-by-bucket.  The
    pool calls this once per finished task, in task order, so merged
    reports are identical at every job count.  No-op on {!disabled}. *)

val span_totals : report -> (string * float) list
(** Total elapsed nanoseconds per span name, summed across the whole
    forest (a name appearing at several nesting sites is aggregated),
    sorted by name. *)

val reset : t -> unit
(** Drop all recorded state (spans, counters, histograms).  The sink
    is kept; useful between benchmark iterations. *)

val flush : t -> unit
(** For {!jsonl} handles: emit one record per counter and per
    histogram.  No-op on other sinks. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable table: the span tree with elapsed times, then
    counters, then histograms — the [hpt --stats] output. *)

(** Deterministic domain pool: an index-ordered batch map.

    A fixed-size pool of OCaml 5 domains (hand-rolled over
    [Domain.spawn] + [Mutex]/[Condition] — no dependency beyond the
    stdlib) with one combinator, {!map}, whose {e results are
    bit-identical at every job count}.  Parallelism changes wall-clock
    time, never verdicts: the batch classifications built on top of
    this module ([Engine.classify_batch]) return the same values at
    [jobs = 1], [2] and [4], including under injected budget trips and
    with telemetry enabled.

    {2 Determinism contract}

    Each of the [n] items of a batch is identified by its list index.
    Everything observable is defined {e purely in index terms}:

    - Task [i] runs on a {e replica} budget [Budget.split b ~among:n
      ~index:i], whose trip point depends only on the parent budget
      and [i] — never on which domain runs the task or when.
    - The {e stop index} is the smallest [i] whose task tripped or
      raised.  Tasks before it always complete; results after it are
      discarded — even if a racing domain happened to finish them —
      exactly as in the sequential path, which never starts them.  The
      stop index's exception ([Budget.Tripped] included) is re-raised
      by {!map} with its original backtrace.
    - Each task records into a {e fresh} telemetry collector (also
      installed as the task's domain-local ambient handle); the
      collectors up to the stop index are merged into the caller's
      handle in index order, and the replicas' spent fuel is charged
      back to the parent budget ([Budget.absorb]) over the same prefix.

    Cancellation is a pure optimisation: a failure at index [i] lowers
    a watermark that later-indexed tasks observe at task start and —
    via the budget's poll hook — mid-task.  Cancelled work is
    discarded, so its timing cannot leak into results.

    {2 Scheduling}

    A batch hands out indexes from one atomic counter.  The submitting
    domain and up to [jobs - 1] queued helpers claim indexes from it
    until none are left; the submitter then waits for the tasks still
    running elsewhere.  Several domains may submit batches to one pool
    at once.

    A batch runs inline on the calling domain, in index order, when
    the pool has one job, when it has a single item, or when {!map} is
    called from inside a task.  The last rule is what rules out
    deadlock: a task never waits on another task, so a submitter only
    ever waits for tasks that are already running.  With no live
    budget and no enabled telemetry the inline path calls the task
    bodies directly, with none of the replica scaffolding. *)

type t
(** A pool handle.  One pool may serve many {!map} calls, sequentially,
    nested, or concurrently from several domains. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains (none when
    [jobs = 1]).  Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Calling {!map} on
    a pool after [shutdown] raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] — also on exceptions. *)

type ctx = {
  budget : Budget.t;  (** this task's replica budget — tick this *)
  telemetry : Telemetry.t;
      (** this task's fresh collector (also the ambient handle while
          the task runs) *)
  index : int;  (** the task's position in the submitted list *)
}
(** What a task body receives alongside its item.  Task bodies must
    charge work to [ctx.budget] (not the parent's) and must not share
    mutable state across items. *)

val map :
  ?budget:Budget.t ->
  ?telemetry:Telemetry.t ->
  t ->
  (ctx -> 'a -> 'b) ->
  'a list ->
  'b list
(** One result per item, in item order, or the stop index's exception
    — the same exception a sequential left-to-right map over a shared
    budget would let escape.  [?budget] defaults to
    [Budget.unlimited]; [?telemetry] defaults to
    [Telemetry.ambient ()]. *)

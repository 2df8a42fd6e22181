(** Cooperative resource budgets: fuel and wall-clock deadlines.

    Every worst-case-exponential procedure in this repository — cycle
    enumeration in the shape conversions, syntactic-monoid saturation,
    tableau expansion, the reactivity-rank decomposition, FTS
    state-space construction — threads a
    [Budget.t] through its hot loop and calls {!tick} once per unit of
    work.  When the budget runs out the loop is interrupted by the
    internal {!Tripped} exception, which the {e engine boundary}
    ([Hierarchy.Engine], or [Classify.classify_budgeted] inside the
    omega layer) catches and converts into a structured
    {!type:exhaustion} value.  [Tripped] is control flow, not API: no
    exception escapes the engine boundary, and callers observe
    exhaustion only as data ({!exhausted}, or the engine's
    partial-verdict results).

    The default budget everywhere is {!unlimited}, whose {!tick}
    reduces to two loads and two compares — measured overhead on the
    classification benches is within noise (see [BENCH_budget.json]).

    {2 Fault injection}

    {!inject_trip_at}[ n] builds a budget that trips on exactly the
    [n]-th tick, with reason {!Injected}.  The qcheck suite
    ([test/test_budget.ml]) drives every engine entry point with trips
    at random points and asserts the two system-wide robustness
    properties: no escaping exception, and every degraded verdict
    interval contains the class computed by the unbudgeted run. *)

type reason =
  | Fuel  (** the fuel allowance ran out *)
  | Deadline  (** the wall-clock deadline passed *)
  | Injected  (** a fault-injection budget tripped (tests only) *)
  | Limit of { what : string; size : int }
      (** a structural limit unrelated to fuel — e.g. a monoid above
          [max_monoid], or a reachable FTS state space above its cap;
          [size] is the offending measure *)

type exhaustion = { reason : reason; spent : int }
(** Why a computation stopped, and how many ticks it had consumed. *)

exception Tripped of exhaustion
(** Internal interruption signal raised by {!tick}/{!check} on an
    exhausted budget.  Sticky: once raised, every later tick or check
    on the same budget re-raises the same exhaustion.  Must not escape
    the engine boundary. *)

type t

val unlimited : t
(** Never trips.  The default for every [?budget] argument. *)

val make : ?fuel:int -> ?timeout_ms:float -> unit -> t
(** A budget with an optional fuel allowance (ticks) and an optional
    wall-clock deadline relative to now.  With neither, behaves like
    {!unlimited}.  Raises [Invalid_argument] on non-positive fuel or
    timeout. *)

val inject_trip_at : int -> t
(** [inject_trip_at n] trips with reason {!Injected} on the [n]-th
    tick (1-based; [n <= 0] trips on the first tick). *)

val split : t -> among:int -> index:int -> ?poll:(unit -> unit) -> unit -> t
(** [split b ~among ~index () ] is the task-local replica of [b] for
    the [index]-th of [among] forked tasks.  Finite fuel is divided
    deterministically — task [index] receives
    [remaining / among + (1 if index < remaining mod among)] — so a
    task's trip point depends only on the parent's state at the split
    and its index, never on scheduling.  {!unlimited} and
    {!inject_trip_at} budgets replicate their remaining allowance
    instead of dividing it (fault-injection tests must observe the trip
    they asked for in {e every} task).  The deadline and any sticky
    trip are inherited.  [?poll] installs a cancellation hook consulted
    every 64 ticks — on the unlimited fast path it is paced by a side
    counter that never touches the accounted spend, so installing a
    hook cannot perturb {!spent} or any trip point.  Raises
    [Invalid_argument] unless [0 <= index < among]. *)

val absorb : t -> spent:int -> unit
(** [absorb b ~spent] charges a completed sub-task's tick count back
    to [b]: the {!spent} counter grows and, on fuel-limited budgets,
    the remaining fuel shrinks by the same amount (it does not raise
    even if that exhausts the fuel — the next {!tick} trips).
    Injected budgets keep their positional trip point.  No-op on
    {!unlimited}. *)

val tick : t -> unit
(** Consume one unit of fuel; raise {!Tripped} if the budget is
    exhausted.  The wall clock is consulted every 256 ticks. *)

val ticks : t -> int -> unit
(** [ticks b n] consumes [n] units at once (bulk charge for a
    construction of size [n]). *)

val check : t -> unit
(** Re-raise if already tripped, and check the deadline, without
    consuming fuel.  Cheap enough for phase boundaries. *)

val spent : t -> int
(** Ticks consumed so far.  Monotonically non-decreasing. *)

val exhausted : t -> exhaustion option
(** Structured view of the budget's state: [Some e] once tripped. *)

val is_unlimited : t -> bool

val structural : t -> what:string -> size:int -> exhaustion
(** [structural b ~what ~size] is the {!Limit} exhaustion recording a
    structural blow-up (it does {e not} trip [b]); used to fold the
    legacy [Too_large]-style exceptions into the same taxonomy. *)

val pp_reason : Format.formatter -> reason -> unit

val pp_exhaustion : Format.formatter -> exhaustion -> unit
(** One line, e.g. ["fuel exhausted after 5000 ticks"]. *)

(** The [hpt serve] daemon: a long-lived, fault-tolerant
    classification service speaking newline-delimited JSON (see
    {!Protocol}) over stdin/stdout or a localhost TCP socket.

    Four robustness layers (DESIGN.md, "The serve layer"):

    - {e Request isolation}: every request runs under its own
      {!Budget} — client-supplied [fuel]/[timeout_ms] clamped to the
      server ceilings — and the {!Hierarchy.Engine} exception
      boundary, so a raising, tripping or poisoned request produces a
      structured error frame and never kills the loop or leaks scoped
      state into its neighbours.
    - {e Overload behaviour}: a bounded in-flight admission gate sheds
      excess load with explicit [overloaded] rejections (cheap, on the
      reader — a shed request never touches a worker); below-ceiling
      fuel trips answer immediately with the degraded interval and
      requeue a refinement attempt with escalated fuel that runs only
      when workers are idle and installs exact results into the
      response cache; a watchdog force-fails requests whose deadline
      passed without the cooperative budget poll firing, retiring and
      replacing stuck workers (bounded) so capacity recovers even from
      non-cooperative tasks.
    - {e Bounded caches}: the response cache here and {!Omega.Lang}'s
      complement cache are size-bounded {!Cache}s that split the
      [--cache-mb] budget in half each, so resident memory stays flat
      across any number of requests.
    - {e Observability of failure}: a JSONL access log (one record per
      request: latency, outcome, budget spent, cache disposition)
      through the exception-safe {!Telemetry.line_writer}, and
      counters served by the [stats] op. *)

type config = {
  port : int option;  (** [Some p]: TCP on 127.0.0.1:[p]; [None]: stdio *)
  jobs : int;  (** worker domains *)
  max_inflight : int;  (** admission gate: queued + running *)
  default_fuel : int;  (** per-request fuel when the client gives none *)
  max_fuel : int;  (** ceiling for client fuel and refinement escalation *)
  default_timeout_ms : float;
  max_timeout_ms : float;  (** server deadline ceiling *)
  refine_every : int;
      (** progress quota: after this many consecutive client requests a
          worker serves one queued refinement even while client work is
          pending, so refinements cannot starve under sustained load *)
  cache_mb : int;
      (** total bound, half to the response cache and half to the
          complement cache *)
  access_log : string option;  (** JSONL path; ["-"] = stderr *)
  debug_ops : bool;
      (** enable [spin] and [inject_trip_at] (chaos/watchdog tests) *)
  max_frame : int;  (** bytes; longer request lines are rejected *)
}

val default_config : config
(** stdio, [jobs = 2], [max_inflight = 16],
    [refine_every = 8], 2s/10s timeouts, [cache_mb = 32], no access
    log, debug ops off, 1 MiB frames. *)

val run : config -> unit
(** Serve until EOF (stdio), a [shutdown] op, or a fatal listener
    error.  Returns after draining queued admitted requests and
    joining every non-stuck worker. *)

(** Propagation of domain-local ambient configuration into forked
    tasks.

    Several layers keep a piece of {e scoped} configuration in
    domain-local storage so that concurrent requests cannot race each
    other's settings: the {!Telemetry} ambient handle, the
    language-inclusion engine override ([Omega.Lang.with_engine]), the
    cache toggles.  Scoping via [Domain.DLS] is exactly right within
    one domain — and silently wrong across a fork: a [Pool] task runs
    on a worker domain whose DLS slots still hold the defaults, so a
    request that selected the explicit oracle would fan out onto
    workers running the antichain engine.

    This module is the bridge.  A layer that owns a DLS-scoped setting
    {!register}s a {e provider}; {!capture} (called by the forking
    layer on the {e submitting} domain) snapshots every registered
    setting into a single polymorphic wrapper, and the fork installs
    that wrapper around each task body on whichever domain runs it.
    [Pool.map] does this once per batch, so every task observes the
    submitter's effective configuration — deterministically, because
    the snapshot is taken before any task starts.

    Providers must be cheap (a DLS read) and must restore the previous
    value on exit, also on exceptions.  Registration happens at module
    initialisation and is not synchronised beyond an [Atomic]. *)

type wrapper = { wrap : 'a. (unit -> 'a) -> 'a }
(** A scoped installer: [w.wrap f] runs [f] with some captured
    configuration installed, restoring the previous state afterwards
    (also on exceptions). *)

val register : (unit -> wrapper) -> unit
(** [register provider] adds a provider to the global registry.
    [provider ()] is called at every {!capture}, on the capturing
    domain, and must return the wrapper that re-installs the
    currently-effective setting. *)

val capture : unit -> wrapper
(** Snapshot every registered provider on the calling domain and
    compose the wrappers (registration order, outermost first). *)

(** The one piece of scoped configuration that crosses a fork: the
    language-inclusion engine.

    The slot lives in domain-local storage, so concurrent requests on
    different domains cannot race each other's setting.  Scoping by
    [Domain.DLS] is right within one domain and wrong across a fork: a
    {!Pool} task runs on a worker domain whose slot still holds the
    default.  [Pool.map] therefore reads {!engine} once per batch on
    the {e submitting} domain and re-installs it with {!with_engine}
    around every task body, so a request that selected the explicit
    oracle never fans out onto workers running the antichain engine.

    [Omega.Lang.engine] and [Omega.Lang.with_engine] are this slot; it
    sits in the kernel only because [Pool] must reach it. *)

type engine = [ `Antichain | `Explicit ]
(** [`Antichain]: the on-the-fly inclusion engine ([Omega.Inclusion]);
    [`Explicit]: the complement-and-product oracle. *)

val engine : unit -> engine
(** The calling domain's engine; [`Antichain] unless an enclosing
    {!with_engine} says otherwise. *)

val with_engine : engine -> (unit -> 'a) -> 'a
(** [with_engine e f] runs [f ()] with the engine set to [e] on the
    calling domain, restoring the previous value afterwards (also on
    exceptions). *)

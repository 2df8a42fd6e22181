type engine = [ `Antichain | `Explicit ]

let engine_key : engine Domain.DLS.key = Domain.DLS.new_key (fun () -> `Antichain)

let engine () = Domain.DLS.get engine_key

let with_engine e f =
  let old = Domain.DLS.get engine_key in
  Domain.DLS.set engine_key e;
  Fun.protect ~finally:(fun () -> Domain.DLS.set engine_key old) f

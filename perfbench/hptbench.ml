(* The hpt benchmark program.

     hptbench --workload W --seed N --seconds S --trace 0|1
              [--hpt PATH] [--commit ID] [--tiny]

   prints a record line with every metric measured, then, as its last
   line, the result object: the end-to-end metrics of BENCHMARK.json
   with --trace 0, the per-layer metrics with --trace 1.  perfbench/run.py
   builds the program and calls this. *)

type workload = {
  name : string;
  jobs : int;  (** worker domains: large's pool, the daemon's for serve; 1 = none *)
  run : tiny:bool -> seed:int -> seconds:float -> Meter.outcome;
  layers : tiny:bool -> seed:int -> Meter.outcome;  (** the traced run *)
}

(* Set-up: time from starting a fresh process to the end of its
   first request, at reference speed.  Three probes run before each
   timed pass, so the median covers the whole run rather than one
   moment of it. *)
let min_probes = 15

let probe_once name =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let status, dt, _ =
    Meter.Speed.time (fun () ->
        let pid =
          Unix.create_process Sys.executable_name [| Sys.executable_name; "--probe"; name |] devnull devnull
            Unix.stderr
        in
        snd (Unix.waitpid [] pid))
  in
  Unix.close devnull;
  if status <> Unix.WEXITED 0 then failwith ("set-up probe failed for " ^ name);
  dt

let closed ~name ~run ~tiny ~seed ~seconds =
  let probes = ref [] in
  let between () = probes := List.init 3 (fun _ -> probe_once name) @ !probes in
  let r = run ~between ~tiny ~seed ~seconds in
  while List.length !probes < min_probes do
    between ()
  done;
  {
    Meter.attempted = r.Closed.attempted;
    failed = r.Closed.failed;
    metrics = Closed.metrics ~setup:(Meter.median !probes) r;
    extra = Meter.m "setup_probes" "count" (float (List.length !probes)) :: Closed.extra r;
  }

let workloads ~hpt =
  [
    {
      name = "classify";
      jobs = 1;
      run =
        closed ~name:"classify" ~run:(fun ~between ~tiny ~seed ~seconds ->
            Closed.run ~between ~passes:(Closed.passes_for ~pass_s:W_classify.pass_s seconds) (W_classify.ops ~tiny ~seed));
      layers = W_classify.layers;
    };
    {
      name = "spec";
      jobs = 1;
      run =
        closed ~name:"spec" ~run:(fun ~between ~tiny ~seed ~seconds ->
            Closed.run ~between ~passes:(Closed.passes_for ~pass_s:W_spec.pass_s seconds) (W_spec.ops ~tiny ~seed));
      layers = W_spec.layers;
    };
    {
      name = "large";
      jobs = W_large.jobs ();
      run = closed ~name:"large" ~run:W_large.run;
      layers = W_large.layers;
    };
    {
      name = "serve";
      jobs = 2;
      run = W_serve.run ~hpt;
      layers = W_serve.layers ~hpt;
    };
  ]

let probes = [ ("classify", W_classify.probe); ("spec", W_spec.probe); ("large", W_large.probe) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let hpt = ref "_build/default/bin/hpt.exe" and commit = ref "unknown" in
  let tiny = ref false and probe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--hpt", Arg.Set_string hpt, "PATH of the hpt executable");
      ("--commit", Arg.Set_string commit, "ID recorded with the result");
      ("--tiny", Arg.Set tiny, " tiny inputs (self-test)");
      ("--probe", Arg.Set_string probe, "NAME (internal: one set-up probe)");
    ]
    (fun a -> raise (Arg.Bad a))
    "hptbench --workload W --seed N --seconds S --trace 0|1";
  if !probe <> "" then begin
    (List.assoc !probe probes) ();
    exit 0
  end;
  let all = workloads ~hpt:!hpt in
  let w =
    match List.find_opt (fun w -> w.name = !workload) all with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let o =
    if !trace = 0 then w.run ~tiny:!tiny ~seed:!seed ~seconds:!seconds
    else
      (* every traced run prints the whole per-layer table, each layer
         measured on its own workload's inputs for this seed *)
      let ts = List.map (fun v -> v.layers ~tiny:!tiny ~seed:!seed) all in
      {
        Meter.attempted = List.fold_left (fun a t -> a + t.Meter.attempted) 0 ts;
        failed = List.fold_left (fun a t -> a + t.Meter.failed) 0 ts;
        metrics = List.concat_map (fun t -> t.Meter.metrics) ts;
        extra = [];
      }
  in
  let info =
    [
      ("workload", Meter.json_string w.name);
      ("seed", string_of_int !seed);
      ("trace", string_of_int !trace);
      ("nproc", string_of_int (Meter.nproc ()));
      ("jobs", string_of_int w.jobs);
      ("commit", Meter.json_string !commit);
    ]
  in
  let named (x : Meter.metric) = List.exists (fun (y : Meter.metric) -> y.name = x.name) o.Meter.metrics in
  let extra = List.filter (fun x -> not (named x)) o.Meter.extra in
  let correct = o.Meter.failed = 0 && Meter.well_formed (o.Meter.metrics @ extra) in
  print_endline
    ("{\"record\": {"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) info)
    ^ ", \"metrics\": " ^ Meter.json_metrics (o.Meter.metrics @ extra) ^ "}}");
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    o.Meter.attempted o.Meter.failed (Meter.json_metrics o.Meter.metrics)

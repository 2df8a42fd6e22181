(* A daemon on a real loopback socket, for the tests that drive one:
   pick a free port, start [Serve.Daemon.run] on its own domain, and
   always shut it down afterwards. *)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt s Unix.SO_REUSEADDR true;
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let p =
    match Unix.getsockname s with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close s;
  p

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* start a daemon, run [f port], always shut the daemon down *)
let with_daemon cfg f =
  let port = free_port () in
  let d =
    Domain.spawn (fun () ->
        Serve.Daemon.run { cfg with Serve.Daemon.port = Some port })
  in
  let rec await n =
    match connect port with
    | fd, _, _ -> Unix.close fd
    | exception Unix.Unix_error _ ->
        if n = 0 then Alcotest.fail "daemon did not come up";
        Unix.sleepf 0.02;
        await (n - 1)
  in
  await 250;
  let fin () =
    (try
       let fd, _, oc = connect port in
       output_string oc "{\"op\":\"shutdown\"}\n";
       flush oc;
       Unix.close fd
     with Unix.Unix_error _ | Sys_error _ -> ());
    Domain.join d
  in
  Fun.protect ~finally:fin (fun () -> f port)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

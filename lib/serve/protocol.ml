module Engine = Hierarchy.Engine

type op =
  | Ping
  | Classify of { formula : string; props : string option; chars : string option }
  | Lint of { specs : (string * string) list }
  | Equiv of {
      f1 : string;
      f2 : string;
      props : string option;
      chars : string option;
    }
  | Stats
  | Shutdown
  | Spin of { ms : int }

type request = {
  id : Json.t;
  op : op;
  op_name : string;
  fuel : int option;
  timeout_ms : float option;
  inject_trip_at : int option;
}

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let opt_string j k = Option.bind (Json.member k j) Json.to_string_opt
let opt_int j k = Option.bind (Json.member k j) Json.to_int_opt
let opt_float j k = Option.bind (Json.member k j) Json.to_float_opt

exception Reject of string * string  (* code, message *)

let reject code msg = raise (Reject (code, msg))

let required_string j k =
  match opt_string j k with
  | Some s -> s
  | None ->
      reject "invalid_request"
        (Printf.sprintf "missing or non-string field %S" k)

let parse_specs j =
  match Json.member "specs" j with
  | None -> reject "invalid_request" "missing field \"specs\""
  | Some specs -> (
      match Json.to_list_opt specs with
      | None -> reject "invalid_request" "\"specs\" must be a list"
      | Some items ->
          List.mapi
            (fun i item ->
              match
                ( Option.bind (Json.member "name" item) Json.to_string_opt,
                  Option.bind (Json.member "formula" item) Json.to_string_opt )
              with
              | Some name, Some formula -> (name, formula)
              | _ ->
                  reject "invalid_request"
                    (Printf.sprintf
                       "specs[%d]: expected {\"name\": .., \"formula\": ..}" i))
            items)

let parse_request j =
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  match
    (match j with
     | Json.Obj _ -> ()
     | _ -> reject "invalid_request" "frame must be a JSON object");
    let op_name =
      match opt_string j "op" with
      | Some s -> s
      | None -> reject "invalid_request" "missing or non-string field \"op\""
    in
    let op =
      match op_name with
      | "ping" -> Ping
      | "classify" ->
          Classify
            {
              formula = required_string j "formula";
              props = opt_string j "props";
              chars = opt_string j "chars";
            }
      | "lint" -> Lint { specs = parse_specs j }
      | "equiv" ->
          Equiv
            {
              f1 = required_string j "f1";
              f2 = required_string j "f2";
              props = opt_string j "props";
              chars = opt_string j "chars";
            }
      | "stats" -> Stats
      | "shutdown" -> Shutdown
      | "spin" ->
          Spin { ms = Option.value (opt_int j "ms") ~default:100 }
      | other -> reject "invalid_request" (Printf.sprintf "unknown op %S" other)
    in
    {
      id;
      op;
      op_name;
      fuel = opt_int j "fuel";
      timeout_ms = opt_float j "timeout_ms";
      inject_trip_at = opt_int j "inject_trip_at";
    }
  with
  | req -> Ok req
  | exception Reject (code, msg) -> Error (id, code, msg)

(* ------------------------------------------------------------------ *)
(* Response bodies                                                     *)
(* ------------------------------------------------------------------ *)

type body = (string * Json.t) list

let render ~id body = Json.to_string (Json.Obj (("id", id) :: body))

let error_body ~code ~message =
  [
    ("status", Json.String "error");
    ( "error",
      Json.Obj
        [ ("code", Json.String code); ("message", Json.String message) ] );
  ]

let shed_body =
  [
    ("status", Json.String "shed");
    ( "error",
      Json.Obj
        [
          ("code", Json.String "overloaded");
          ( "message",
            Json.String "server at max in-flight requests; retry with backoff"
          );
        ] );
  ]

let code_of_error : Engine.error -> string = function
  | Engine.Parse_error _ -> "parse_error"
  | Engine.Invalid_input _ -> "invalid_input"
  | Engine.Unsupported _ -> "unsupported"
  | Engine.Budget_exceeded _ -> "budget_exceeded"
  | Engine.Internal _ -> "internal"

let reason_to_json : Budget.reason -> Json.t = function
  | Budget.Fuel -> Json.String "fuel"
  | Budget.Deadline -> Json.String "deadline"
  | Budget.Injected -> Json.String "injected"
  | Budget.Limit { what; size } ->
      Json.Obj
        [ ("limit", Json.String what); ("size", Json.Int size) ]

let exhaustion_to_json (e : Budget.exhaustion) =
  Json.Obj
    [ ("reason", reason_to_json e.Budget.reason); ("spent", Json.Int e.Budget.spent) ]

let engine_error_body e =
  let base =
    error_body ~code:(code_of_error e) ~message:(Fmt.str "%a" Engine.pp_error e)
  in
  match e with
  | Engine.Budget_exceeded x -> base @ [ ("exhaustion", exhaustion_to_json x) ]
  | _ -> base

let kappa k = Json.String (Kappa.name k)

let opt f = function Some v -> f v | None -> Json.Null

let verdict_to_json : Engine.verdict -> Json.t = function
  | Engine.Exact k -> Json.Obj [ ("kind", Json.String "exact"); ("class", kappa k) ]
  | Engine.Interval { lower; upper } ->
      Json.Obj
        [
          ("kind", Json.String "interval");
          ("lower", opt kappa lower);
          ("upper", opt kappa upper);
        ]

let report_body (r : Engine.report) =
  let yn = opt (fun b -> Json.Bool b) in
  let status = match r.Engine.exhausted with Some _ -> "degraded" | None -> "ok" in
  [
    ("status", Json.String status);
    ("verdict", verdict_to_json r.Engine.verdict);
    ("syntactic", opt kappa r.Engine.syntactic);
    ( "memberships",
      Json.Obj
        (List.map
           (fun (k, b) -> (Kappa.name k, yn b))
           r.Engine.memberships) );
    ("liveness", yn r.Engine.is_liveness);
    ("uniform_liveness", yn r.Engine.is_uniform_liveness);
    ("counter_free", yn r.Engine.counter_free);
    ("n_states", opt (fun n -> Json.Int n) r.Engine.n_states);
  ]
  @
  match r.Engine.exhausted with
  | Some e -> [ ("degraded", exhaustion_to_json e) ]
  | None -> []

let equiv_body alpha v =
  match v with
  | `Equivalent ->
      [ ("status", Json.String "ok"); ("equivalent", Json.Bool true) ]
  | `Distinct (w, side) ->
      [
        ("status", Json.String "ok");
        ("equivalent", Json.Bool false);
        ("witness", Json.String (Fmt.str "%a" (Finitary.Word.pp_lasso alpha) w));
        ( "side",
          Json.String
            (match side with
            | Engine.First_only -> "first_only"
            | Engine.Second_only -> "second_only") );
      ]

let lint_body v =
  let diagnostics =
    (* [Lint.to_json] already renders the verdict; round-trip it
       through the parser rather than duplicating the rendering *)
    match Json.of_string (Hierarchy.Lint.to_json v) with
    | Ok j -> j
    | Error _ -> Json.String (Hierarchy.Lint.to_json v)
  in
  [ ("status", Json.String "ok"); ("lint", diagnostics) ]

let pong_body = [ ("status", Json.String "ok"); ("pong", Json.Bool true) ]

(* ------------------------------------------------------------------ *)
(* Response-cache keys                                                 *)
(* ------------------------------------------------------------------ *)

(* '\x00' cannot appear in a parsed JSON string that came from a
   well-formed frame (the parser rejects raw control characters), so
   it is a safe field separator *)
let sep = "\x00"

let cache_key req =
  let oo = function Some s -> s | None -> "" in
  match req.op with
  | Classify { formula; props; chars } ->
      Some (String.concat sep [ "classify"; formula; oo props; oo chars ])
  | Equiv { f1; f2; props; chars } ->
      Some (String.concat sep [ "equiv"; f1; f2; oo props; oo chars ])
  | Lint { specs } ->
      Some
        (String.concat sep
           ("lint" :: List.concat_map (fun (n, f) -> [ n; f ]) specs))
  | Ping | Stats | Shutdown | Spin _ -> None

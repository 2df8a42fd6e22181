(* Fuzzing the two text parsers that take user input besides the
   formula parser: [Finitary.Regex.parse] (the [hpt build] regexes) and
   [Fts.Parse.parse] (the [hpt analyze] model files).  Random and
   mutated inputs may only be accepted or refused with the documented
   [Invalid_argument]: a regex error names a position, a model error
   starts with [NAME:LINE:].  Any other exception is a parser bug. *)

let check = Alcotest.(check bool)

let contains ~sub s =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

(* [f s] returns, or raises [Invalid_argument m] with [documented m];
   anything else fails the property with the input and the exception *)
let only_documented ~documented f s =
  match f s with
  | _ -> true
  | exception Invalid_argument m ->
      documented m
      || QCheck.Test.fail_reportf "undocumented message %S for %S" m s
  | exception e ->
      QCheck.Test.fail_reportf "%s raised for %S" (Printexc.to_string e) s

(* Up to [max_edits] edits of a seed: delete a character, insert one
   from [chars] or one of [tokens], duplicate a slice, truncate, or
   insert a long run of digits (integer overflow). *)
let gen_mutated ~chars ~tokens ~max_edits seeds =
  let open QCheck.Gen in
  let edit s =
    let n = String.length s in
    int_bound 5 >>= fun how ->
    int_bound n >>= fun i ->
    int_bound (n - i) >>= fun len ->
    oneof
      [
        map
          (fun i -> String.make 1 chars.[i])
          (int_bound (String.length chars - 1));
        oneofl tokens;
      ]
    >>= fun ins ->
    int_range 10 40 >|= fun digits ->
    let before = String.sub s 0 i and after = String.sub s i (n - i) in
    match how with
    | 0 when i < n -> before ^ String.sub s (i + 1) (n - i - 1)
    | 1 -> before ^ ins ^ after
    | 2 -> before ^ String.sub s i len ^ after
    | 3 -> before
    | 4 -> before ^ String.make digits '9' ^ after
    | _ -> before ^ ins ^ after
  in
  oneofl seeds >>= fun seed ->
  int_range 1 max_edits >>= fun edits ->
  let rec go k s = if k = 0 then return s else edit s >>= go (k - 1) in
  go edits seed

let gen_random ~chars ~max_len =
  QCheck.Gen.(
    string_size
      ~gen:(map (String.get chars) (int_bound (String.length chars - 1)))
      (int_bound max_len))

(* ------------------------------------------------------------------ *)
(* Finitary.Regex.parse                                                *)
(* ------------------------------------------------------------------ *)

let abc = Finitary.Alphabet.of_chars "abc"

(* the regexes of test_finitary.ml, valid and invalid *)
let regex_seeds =
  [
    "a^+ b*"; ".* b"; "a (a + b)* + a"; "a .*  + a"; "a .*"; "b .*"; ".*";
    ".* b a b"; "(a b)^3"; "a^*"; "a^+"; "() + a b"; ". c"; "(a + b)^2 a";
    ".* b (a + ())"; "a +"; "(a"; "a)"; "x"; "a ^"; ""; "'a' \"b\"";
  ]

let regex_chars = "abcx .()+*^0123456789'\"{},\t\000\255"

let regex_parse = Finitary.Regex.parse abc

(* every [fail] message reads "Regex.parse: ... at position N in ..." *)
let regex_documented m =
  String.starts_with ~prefix:"Regex.parse: " m && contains ~sub:" at position " m

let regex_tests =
  let deep = 100_000 in
  let nest inner closers =
    String.make deep '(' ^ inner ^ String.make closers ')'
  in
  Alcotest.test_case "10^5-deep parentheses" `Quick (fun () ->
      check "balanced nesting parses to the letter" true
        (regex_parse (nest "a" deep) = Finitary.Regex.Letter 0);
      List.iter
        (fun s ->
          match regex_parse s with
          | _ -> Alcotest.failf "unbalanced nesting of %d parsed" deep
          | exception Invalid_argument m ->
              check "positioned message" true (regex_documented m))
        [ nest "a" (deep - 1); nest "a" deep ^ ")"; nest "" 0 ])
  :: List.map QCheck_alcotest.to_alcotest
       [
         QCheck.Test.make ~name:"random strings raise only positioned errors"
           ~count:20000
           (QCheck.make ~print:(Printf.sprintf "%S")
              (gen_random ~chars:regex_chars ~max_len:30))
           (only_documented ~documented:regex_documented regex_parse);
         QCheck.Test.make ~name:"mutated regexes raise only positioned errors"
           ~count:20000
           (QCheck.make ~print:(Printf.sprintf "%S")
              (gen_mutated ~chars:regex_chars
                 ~tokens:[ "^*"; "^+"; "^"; "()"; "'ab'"; "{a}"; "'" ]
                 ~max_edits:4 regex_seeds))
           (only_documented ~documented:regex_documented regex_parse);
       ]

(* ------------------------------------------------------------------ *)
(* Fts.Parse.parse                                                     *)
(* ------------------------------------------------------------------ *)

let fts_seeds =
  let dir = "../examples/specs" in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".fts")
  |> List.map (fun f ->
         In_channel.with_open_text (Filename.concat dir f) In_channel.input_all)

let fts_chars = "abcpq01239=:-><|&!,. #_\n\t"

let fts_tokens =
  [
    "var "; "init "; "trans "; "fair weak "; "fair strong "; "spec ";
    " when "; ":="; ".."; "->"; "|"; "en_"; "taken_"; "idle"; "[] "; "<> ";
    "X "; "+1"; "-1"; "\n";
  ]

(* "NAME:LINE: message" *)
let fts_documented m =
  match String.index_opt m ':' with
  | Some i when String.sub m 0 i = "fuzz" -> (
      match String.index_from_opt m (i + 1) ':' with
      | Some j when j > i + 1 ->
          int_of_string_opt (String.sub m (i + 1) (j - i - 1)) <> None
      | _ -> false)
  | _ -> false

let fts_parse s = Fts.Parse.parse ~name:"fuzz" s

(* whole-line edits on top of the character edits: drop, duplicate or
   transplant a line from another seed *)
let gen_line_mutated =
  let open QCheck.Gen in
  let lines s = Array.of_list (String.split_on_char '\n' s) in
  oneofl fts_seeds >>= fun seed ->
  oneofl fts_seeds >>= fun donor ->
  let ls = lines seed and ds = lines donor in
  int_bound (Array.length ls - 1) >>= fun i ->
  int_bound (Array.length ds - 1) >>= fun j ->
  int_bound 2 >|= fun how ->
  let l = Array.to_list ls in
  String.concat "\n"
    (List.concat
       (List.mapi
          (fun k line ->
            if k <> i then [ line ]
            else
              match how with
              | 0 -> []
              | 1 -> [ line; line ]
              | _ -> [ ds.(j); line ])
          l))

let fts_tests =
  Alcotest.test_case "the seed models parse" `Quick (fun () ->
      check "at least one seed" true (fts_seeds <> []);
      List.iter (fun s -> ignore (fts_parse s)) fts_seeds)
  :: List.map QCheck_alcotest.to_alcotest
       [
         QCheck.Test.make ~name:"random text raises only NAME:LINE: errors"
           ~count:10000
           (QCheck.make ~print:(Printf.sprintf "%S")
              (gen_random ~chars:fts_chars ~max_len:60))
           (only_documented ~documented:fts_documented fts_parse);
         QCheck.Test.make ~name:"mutated models raise only NAME:LINE: errors"
           ~count:10000
           (QCheck.make ~print:(Printf.sprintf "%S")
              (gen_mutated ~chars:fts_chars ~tokens:fts_tokens ~max_edits:4
                 fts_seeds))
           (only_documented ~documented:fts_documented fts_parse);
         QCheck.Test.make ~name:"line-edited models raise only NAME:LINE: errors"
           ~count:5000
           (QCheck.make ~print:(Printf.sprintf "%S") gen_line_mutated)
           (only_documented ~documented:fts_documented fts_parse);
       ]

let () =
  Alcotest.run "fuzz" [ ("regex", regex_tests); ("fts", fts_tests) ]

(* The shared graph kernel, differentially against the recursive
   Tarjan/DFS implementations it replaced, and the bitset against
   Set.Make (Int). *)

module IntSet = Set.Make (Int)

(* The recursive Tarjan previously duplicated across omega/fts/logic,
   kept here verbatim as the reference: components at completion time,
   accumulated head-first. *)
let reference_sccs ~n ~succ =
  let index = ref 0 in
  let idx = Array.make n (-1) in
  let low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let out = ref [] in
  let rec strong v =
    idx.(v) <- !index;
    low.(v) <- !index;
    incr index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if idx.(w) = -1 then begin
          strong w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) idx.(w))
      (succ v);
    if low.(v) = idx.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      out := pop [] :: !out
    end
  in
  for v = 0 to n - 1 do
    if idx.(v) = -1 then strong v
  done;
  !out

let reference_sccs_in ~n ~succ ~allowed =
  reference_sccs ~n ~succ:(fun v ->
      if allowed v then List.filter allowed (succ v) else [])
  |> List.filter (fun comp -> List.exists allowed comp)

let reference_reachable ~n ~succ ~starts =
  let seen = Array.make n false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go (succ v)
    end
  in
  List.iter go starts;
  seen

(* random graphs as adjacency lists *)
let gen_graph =
  let open QCheck.Gen in
  sized_size (int_range 1 12) @@ fun n ->
  let n = max n 1 in
  map
    (fun rows -> (n, Array.of_list rows))
    (list_repeat n (list_size (int_bound (n + 2)) (int_bound (n - 1))))

let arb_graph =
  QCheck.make
    ~print:(fun (n, adj) ->
      Format.asprintf "n=%d; %a" n
        Fmt.(array ~sep:semi (list ~sep:comma int))
        adj)
    gen_graph

let succ_of (adj : int list array) v = adj.(v)

(* Larger graphs whose edges stay within a few steps, with a region of
   a few nearby states, so that regions under an eighth of the graph
   (the locally renumbered path of [sccs_region]) still carry cycles. *)
let gen_sparse_region =
  let open QCheck.Gen in
  int_range 16 300 >>= fun n ->
  list_repeat n (list_size (int_range 0 4) (int_range (-3) 3)) >>= fun offs ->
  int_bound (n - 1) >>= fun lo ->
  int_range 1 (max 1 (n / 9)) >>= fun len ->
  list_size (int_bound 3) (int_bound (n - 1)) >>= fun extra ->
  let adj =
    Array.of_list
      (List.mapi (fun v ds -> List.map (fun d -> (v + d + n) mod n) ds) offs)
  in
  let region =
    Bitset.of_list (extra @ List.init len (fun i -> (lo + i) mod n))
  in
  return (n, adj, region)

let arb_sparse_region =
  QCheck.make
    ~print:(fun (n, adj, region) ->
      Format.asprintf "n=%d; region=%a; %a" n Bitset.pp region
        Fmt.(array ~sep:semi (list ~sep:comma int))
        adj)
    gen_sparse_region

let differential_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"sccs match the recursive Tarjan" ~count:500
        arb_graph
        (fun (n, adj) ->
          Graph_kernel.sccs ~n ~succ:(succ_of adj)
          = reference_sccs ~n ~succ:(succ_of adj));
      QCheck.Test.make ~name:"restricted sccs match the recursive Tarjan"
        ~count:500
        QCheck.(pair arb_graph (int_bound 4096))
        (fun ((n, adj), mask) ->
          (* the predicate form and the region form, component order
             and member order included *)
          let allowed v = mask land (1 lsl v) <> 0 in
          let expected = reference_sccs_in ~n ~succ:(succ_of adj) ~allowed in
          Graph_kernel.sccs_in ~n ~succ:(succ_of adj) ~allowed = expected
          && Graph_kernel.sccs_region ~n ~succ:(succ_of adj)
               (Bitset.init n allowed)
             = expected);
      QCheck.Test.make
        ~name:"sparse regions match the recursive Tarjan" ~count:500
        arb_sparse_region
        (fun (n, adj, region) ->
          let allowed v = Bitset.mem v region in
          Graph_kernel.sccs_region ~n ~succ:(succ_of adj) region
          = reference_sccs_in ~n ~succ:(succ_of adj) ~allowed);
      QCheck.Test.make ~name:"reachability matches the recursive DFS"
        ~count:500 arb_graph
        (fun (n, adj) ->
          Graph_kernel.reachable ~n ~succ:(succ_of adj) ~starts:[ 0 ]
          = reference_reachable ~n ~succ:(succ_of adj) ~starts:[ 0 ]);
      QCheck.Test.make ~name:"sccs partition the states" ~count:200 arb_graph
        (fun (n, adj) ->
          let states =
            List.concat (Graph_kernel.sccs ~n ~succ:(succ_of adj))
          in
          List.sort compare states = List.init n Fun.id);
      QCheck.Test.make ~name:"nontrivial iff the component has a cycle"
        ~count:200 arb_graph
        (fun (n, adj) ->
          List.for_all
            (fun comp ->
              let expected =
                match comp with
                | [ v ] -> List.mem v adj.(v)
                | _ -> List.length comp > 1
              in
              Graph_kernel.nontrivial ~succ:(succ_of adj) comp = expected)
            (Graph_kernel.sccs ~n ~succ:(succ_of adj)));
    ]

let deep_tests =
  [
    Alcotest.test_case "a 200k-state path does not overflow the stack" `Quick
      (fun () ->
        let n = 200_000 in
        let succ v = if v + 1 < n then [ v + 1 ] else [] in
        let comps = Graph_kernel.sccs ~n ~succ in
        Alcotest.(check int) "singleton components" n (List.length comps);
        let r = Graph_kernel.reachable ~n ~succ ~starts:[ 0 ] in
        Alcotest.(check bool) "end reachable" true r.(n - 1));
    Alcotest.test_case "a 200k-state cycle is one component" `Quick (fun () ->
        let n = 200_000 in
        let succ v = [ (v + 1) mod n ] in
        match Graph_kernel.sccs ~n ~succ with
        | [ comp ] ->
            Alcotest.(check int) "all states" n (List.length comp);
            Alcotest.(check bool) "nontrivial" true
              (Graph_kernel.nontrivial ~succ comp)
        | comps ->
            Alcotest.failf "expected one component, got %d"
              (List.length comps));
  ]

(* random operation programs interpreted over both set implementations *)
type op =
  | Add of int
  | Remove of int
  | Union of op list
  | Inter of op list
  | Diff of op list

let gen_op =
  let open QCheck.Gen in
  sized_size (int_bound 6)
  @@ fix (fun self d ->
         if d = 0 then
           oneof
             [ map (fun i -> Add i) (int_bound 200);
               map (fun i -> Remove i) (int_bound 200) ]
         else
           oneof
             [ map (fun i -> Add i) (int_bound 200);
               map (fun i -> Remove i) (int_bound 200);
               map (fun l -> Union l) (list_size (int_range 1 3) (self (d - 1)));
               map (fun l -> Inter l) (list_size (int_range 1 3) (self (d - 1)));
               map (fun l -> Diff l) (list_size (int_range 1 3) (self (d - 1)))
             ])

let arb_ops = QCheck.make QCheck.Gen.(list_size (int_bound 12) gen_op)

let rec run_bitset s = function
  | Add i -> Bitset.add i s
  | Remove i -> Bitset.remove i s
  | Union l -> List.fold_left (fun s o -> Bitset.union s (run_bitset s o)) s l
  | Inter l -> List.fold_left (fun s o -> Bitset.inter s (run_bitset s o)) s l
  | Diff l -> List.fold_left (fun s o -> Bitset.diff s (run_bitset s o)) s l

let rec run_intset s = function
  | Add i -> IntSet.add i s
  | Remove i -> IntSet.remove i s
  | Union l -> List.fold_left (fun s o -> IntSet.union s (run_intset s o)) s l
  | Inter l -> List.fold_left (fun s o -> IntSet.inter s (run_intset s o)) s l
  | Diff l -> List.fold_left (fun s o -> IntSet.diff s (run_intset s o)) s l

(* [filter] and [filter_map] over a 10k-element set must cost the set's
   size: adding each kept element to a persistent set copied the growing
   words array each time, about 0.40M minor words for [filter] keeping
   half and 0.83M for [filter_map] here.  One pass into one words
   array costs about 170 words; [filter_map] also pays for the
   callback's [Some] boxes and the list and array of images (about 30k
   words), so 0.1M words is the bound. *)
let filter_alloc_test =
  Alcotest.test_case "filter/filter_map on a 10k-element set is linear"
    `Quick (fun () ->
      let n = 10_000 in
      let s = Bitset.init n (fun _ -> true) in
      let measure name f =
        let before = Gc.minor_words () in
        let r = f () in
        let words = Gc.minor_words () -. before in
        if words >= 100_000. then
          Alcotest.failf "%s allocated %.0f minor words" name words;
        r
      in
      let evens = measure "filter" (fun () -> Bitset.filter (fun q -> q mod 2 = 0) s) in
      let shifted =
        measure "filter_map" (fun () ->
            Bitset.filter_map (fun q -> if q mod 2 = 0 then Some (q + 1) else None) s)
      in
      Alcotest.(check int) "filter keeps half" (n / 2) (Bitset.cardinal evens);
      Alcotest.(check bool) "filter_map shifts the evens" true
        (Bitset.equal shifted (Bitset.init (n + 1) (fun q -> q mod 2 = 1))))

let bitset_tests =
  filter_alloc_test
  :: List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"filter/filter_map agree with lists" ~count:300
        QCheck.(pair (list (int_bound 300)) (int_range 1 7))
        (fun (l, m) ->
          let b = Bitset.of_list l in
          let keep q = q mod m <> 1 in
          let image q = if q mod m = 0 then None else Some ((q * 3) mod 400) in
          (* structural equality: the results are normalized *)
          Bitset.filter keep b = Bitset.of_list (List.filter keep (Bitset.elements b))
          && Bitset.filter_map image b
             = Bitset.of_list (List.filter_map image (Bitset.elements b)));
      QCheck.Test.make ~name:"bitset agrees with Set.Make (Int)" ~count:500
        arb_ops
        (fun ops ->
          let b = List.fold_left run_bitset Bitset.empty ops in
          let s = List.fold_left run_intset IntSet.empty ops in
          Bitset.elements b = IntSet.elements s
          && Bitset.cardinal b = IntSet.cardinal s
          && Bitset.is_empty b = IntSet.is_empty s
          && Bitset.min_elt_opt b = IntSet.min_elt_opt s);
      QCheck.Test.make ~name:"bitset relations agree with Set.Make (Int)"
        ~count:500
        QCheck.(pair arb_ops arb_ops)
        (fun (o1, o2) ->
          let b1 = List.fold_left run_bitset Bitset.empty o1
          and b2 = List.fold_left run_bitset Bitset.empty o2 in
          let s1 = List.fold_left run_intset IntSet.empty o1
          and s2 = List.fold_left run_intset IntSet.empty o2 in
          Bitset.subset b1 b2 = IntSet.subset s1 s2
          && Bitset.disjoint b1 b2 = IntSet.disjoint s1 s2
          && Bitset.equal b1 b2 = IntSet.equal s1 s2
          (* the two total orders differ; only compare-to-zero must agree *)
          && (Bitset.compare b1 b2 = 0) = (IntSet.compare s1 s2 = 0));
      QCheck.Test.make
        ~name:"normalization: equal sets are structurally equal values"
        ~count:500
        QCheck.(pair arb_ops arb_ops)
        (fun (o1, o2) ->
          let b1 = List.fold_left run_bitset Bitset.empty o1
          and b2 = List.fold_left run_bitset Bitset.empty o2 in
          (* polymorphic equality must coincide with set equality, even
             after removals shrink a set built from large elements *)
          Bitset.equal b1 b2 = (b1 = b2));
      QCheck.Test.make ~name:"fold/iter/of_array round trips" ~count:300
        QCheck.(list (int_bound 300))
        (fun l ->
          let b = Bitset.of_list l in
          let via_fold = List.rev (Bitset.fold (fun i acc -> i :: acc) b []) in
          let via_iter =
            let r = ref [] in
            Bitset.iter (fun i -> r := i :: !r) b;
            List.rev !r
          in
          let via_array = Bitset.of_array (Array.of_list l) in
          via_fold = Bitset.elements b
          && via_iter = Bitset.elements b
          && Bitset.equal b via_array);
      QCheck.Test.make ~name:"init builds the filtered interval" ~count:300
        QCheck.(pair (int_bound 300) (int_bound 7))
        (fun (n, m) ->
          (* [m = 0] keeps nothing, [m = 1] everything *)
          let f q = m > 0 && q mod m <> 1 in
          let b = Bitset.init n f in
          (* structural equality: [init] normalizes like [of_list] *)
          b = Bitset.of_list (List.filter f (List.init n Fun.id)));
    ]

(* the open-addressed index against a stdlib table, on key streams with
   repeats, strides and keys far above the capacity *)
let int_index_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"find_or_add agrees with Hashtbl" ~count:300
        QCheck.(
          pair (int_range 1 1000) (list (pair (int_bound 2000) (int_bound 3))))
        (fun (stride, steps) ->
          let t = Int_index.create () and h = Hashtbl.create 16 in
          List.for_all
            (fun (k, scale) ->
              let key = k * (if scale = 0 then 1 else stride * scale) in
              let fresh = Hashtbl.length h in
              let expected =
                match Hashtbl.find_opt h key with
                | Some v -> v
                | None ->
                    Hashtbl.add h key fresh;
                    fresh
              in
              Int_index.find_or_add t key fresh = expected
              && Int_index.find t key = expected
              && Int_index.find t (key + 1)
                 = Option.value ~default:(-1) (Hashtbl.find_opt h (key + 1)))
            steps
          && Int_index.find t (-1) = -1);
      (* tens of thousands of keys: the pages fill several chunks of
         their stack, and the page table doubles many times *)
      QCheck.Test.make ~name:"many dense and sparse keys agree with Hashtbl"
        ~count:20
        QCheck.(pair (int_range 1 40_000) (int_range 1 5_000))
        (fun (n, stride) ->
          let t = Int_index.create () and h = Hashtbl.create n in
          let keys = List.init n (fun i -> ((i * 7) mod n) * stride) in
          List.iteri
            (fun v k ->
              let v' = Int_index.find_or_add t k v in
              if not (Hashtbl.mem h k) then Hashtbl.add h k v';
              assert (v' = Hashtbl.find h k))
            keys;
          List.for_all
            (fun k ->
              Int_index.find t k = Hashtbl.find h k
              && Int_index.find t (k + 1)
                 = Option.value ~default:(-1) (Hashtbl.find_opt h (k + 1)))
            keys);
    ]

(* The chunked stack against an array, on pushes and pops of groups of
   [w] ints that cross chunk boundaries back and forth, with a write by
   position after each move and reads of every position. *)
let int_stack_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck.Test.make ~name:"push/drop/get agree with an array" ~count:100
        QCheck.(
          pair (oneofl [ 1; 3; 5; 16 ])
            (list_of_size Gen.(int_range 1 12) (int_range (-9000) 9000)))
        (fun (w, moves) ->
          let s = Int_stack.create () in
          let pushed = List.fold_left (fun n m -> n + max m 0) 0 moves in
          let model = Array.make (pushed * w) 0 and l = ref 0 in
          List.for_all
            (fun m ->
              if m >= 0 then
                for _ = 1 to m * w do
                  Int_stack.push s !l;
                  model.(!l) <- !l;
                  incr l
                done
              else
                for _ = 1 to min (-m) (!l / w) do
                  Int_stack.drop s w;
                  l := !l - w
                done;
              if !l > 0 then begin
                Int_stack.set s (!l / 2) (-7);
                model.(!l / 2) <- -7
              end;
              let rec same i =
                i = !l || (Int_stack.get s i = model.(i) && same (i + 1))
              in
              Int_stack.length s = !l
              && (!l = 0 || s.data.(s.top - 1) = model.(!l - 1))
              && same 0)
            moves);
    ]

let () =
  Alcotest.run "kernel"
    [
      ("differential", differential_tests);
      ("deep", deep_tests);
      ("bitset", bitset_tests);
      ("int index", int_index_tests);
      ("int stack", int_stack_tests);
    ]

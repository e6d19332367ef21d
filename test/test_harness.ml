(* Tests for the domain-pool experiment harness.

   The load-bearing property is determinism: every (experiment x size x
   seed) cell is an independent simulation, and the pool reassembles
   results in submission order, so the rendered tables must be
   byte-identical for any job count. *)

open Harness

(* --- Pool ----------------------------------------------------------- *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs)
    (Pool.map pool (fun x -> x * x) xs)

let test_pool_map_sequential () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check (list int)) "jobs=1 works" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_more_jobs_than_items () =
  Pool.with_pool ~jobs:8 @@ fun pool ->
  Alcotest.(check (list int)) "tiny input" [ 10 ] (Pool.map pool (fun x -> 10 * x) [ 1 ]);
  Alcotest.(check (list int)) "empty input" [] (Pool.map pool (fun x -> x) [])

exception Boom

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.check_raises "first worker exception re-raised" Boom (fun () ->
      ignore (Pool.map pool (fun x -> if x = 5 then raise Boom else x) (List.init 10 Fun.id)));
  (* the pool survives a failed batch *)
  Alcotest.(check (list int)) "pool reusable after failure" [ 1; 2; 3 ]
    (Pool.map pool Fun.id [ 1; 2; 3 ])

let test_pool_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* --- deterministic tables across job counts ------------------------- *)

(* E17 (the scale tier) carries wall-clock throughput columns — the one
   documented exception to byte-identity — so comparisons skip it. *)
let deterministic tables = List.filter (fun t -> not (String.equal t.Table.id "E17")) tables

(* [first_difference a b] — the index of the first row where [a] and [b]
   differ, with both rows ([None] past a list's end) *)
let first_difference a b =
  let rec go i = function
    | [], [] -> None
    | r :: rs, r' :: rs' ->
      if List.equal String.equal r r' then go (i + 1) (rs, rs') else Some (i, Some r, Some r')
    | r :: _, [] -> Some (i, Some r, None)
    | [], r' :: _ -> Some (i, None, Some r')
  in
  go 0 (a, b)

(* Table by table, so a mismatch names the experiment and its first
   differing row instead of dumping both renders. Equal fields render to
   equal bytes, since [Table.pp] reads nothing else. *)
let check_tables what expected actual =
  let expected = deterministic expected and actual = deterministic actual in
  let ids = List.map (fun t -> t.Table.id) in
  Alcotest.(check (list string)) (what ^ ": table ids") (ids expected) (ids actual);
  List.iter2
    (fun (e : Table.t) (a : Table.t) ->
      let field name = Printf.sprintf "%s: %s %s" what e.id name in
      Alcotest.(check string) (field "title") e.title a.title;
      Alcotest.(check string) (field "claim") e.claim a.claim;
      Alcotest.(check (list string)) (field "header") e.header a.header;
      (match first_difference e.rows a.rows with
      | None -> ()
      | Some (i, r, r') ->
        let show = function None -> "(no row)" | Some r -> String.concat " | " r in
        Alcotest.failf "%s: %s differs first at row %d\n  expected: %s\n  actual:   %s" what
          e.id i (show r) (show r'));
      Alcotest.(check (list string)) (field "notes") e.notes a.notes)
    expected actual

let test_experiments_jobs_byte_identical () =
  let p = Experiments.quick_params in
  check_tables "jobs=1 vs jobs=4" (Experiments.all ~jobs:1 p) (Experiments.all ~jobs:4 p)

let test_ablations_jobs_byte_identical () =
  let p = Experiments.quick_params in
  check_tables "jobs=1 vs jobs=4" (Ablations.all ~jobs:1 p) (Ablations.all ~jobs:4 p)

let test_registry_matches_all () =
  let p = Experiments.quick_params in
  Alcotest.(check (list string)) "registry ids" Experiments.ids
    (List.map fst Experiments.registry);
  check_tables "all vs registry" (Experiments.all ~jobs:1 p)
    (List.map (fun (_, f) -> f ?jobs:(Some 1) p) Experiments.registry)

let test_first_difference () =
  let rows = [ [ "4"; "true" ]; [ "6"; "true" ] ] in
  Alcotest.(check bool) "equal rows" true (first_difference rows rows = None);
  Alcotest.(check bool) "a differing cell" true
    (first_difference rows [ [ "4"; "true" ]; [ "6"; "false" ] ]
    = Some (1, Some [ "6"; "true" ], Some [ "6"; "false" ]));
  Alcotest.(check bool) "a missing row" true
    (first_difference rows [ [ "4"; "true" ] ] = Some (1, Some [ "6"; "true" ], None))

let suites =
  [
    ( "harness.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "sequential fallback" `Quick test_pool_map_sequential;
        Alcotest.test_case "more jobs than items" `Quick test_pool_more_jobs_than_items;
        Alcotest.test_case "exception propagates" `Quick test_pool_exception_propagates;
        Alcotest.test_case "default jobs" `Quick test_pool_default_jobs;
      ] );
    ( "harness.determinism",
      [
        Alcotest.test_case "experiments byte-identical across jobs" `Slow
          test_experiments_jobs_byte_identical;
        Alcotest.test_case "ablations byte-identical across jobs" `Slow
          test_ablations_jobs_byte_identical;
        Alcotest.test_case "registry matches all" `Slow test_registry_matches_all;
        Alcotest.test_case "first differing row" `Quick test_first_difference;
      ] );
  ]

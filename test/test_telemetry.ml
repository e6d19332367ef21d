(* Tests for the telemetry layer: histogram bucket geometry and quantile
   accuracy, span bookkeeping (nesting, orphans, unmatched ends), the
   trace ring's exact-at-limit eviction, and exporter format/determinism. *)

open Sim
module H = Telemetry.Histogram

let feq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* histogram bucket geometry                                            *)
(* ------------------------------------------------------------------ *)

let test_bucket_boundaries () =
  (* every finite bound maps to its own bucket, and a hair above it to
     the next one *)
  for i = 0 to H.buckets - 1 do
    let b = H.bound i in
    Alcotest.(check int)
      (Printf.sprintf "bound %d is in bucket %d" i i)
      i (H.bucket_index b);
    let above = b *. 1.000001 in
    Alcotest.(check int)
      (Printf.sprintf "just above bound %d" i)
      (i + 1)
      (H.bucket_index above)
  done;
  (* bounds grow geometrically *)
  Alcotest.check feq "bound 0 = least" H.least (H.bound 0);
  for i = 1 to H.buckets - 1 do
    Alcotest.check feq "geometric growth"
      (H.bound (i - 1) *. H.ratio)
      (H.bound i)
  done;
  (* tiny, zero and negative values land in bucket 0; huge in overflow *)
  Alcotest.(check int) "zero" 0 (H.bucket_index 0.0);
  Alcotest.(check int) "negative" 0 (H.bucket_index (-5.0));
  Alcotest.(check int) "below least" 0 (H.bucket_index (H.least /. 2.0));
  Alcotest.(check int) "huge overflows" H.buckets
    (H.bucket_index (H.bound (H.buckets - 1) *. 2.0))

let test_histogram_stats () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (option (float 0.0))) "empty quantile" None (H.quantile h 0.5);
  List.iter (H.observe h) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "count" 3 (H.count h);
  Alcotest.check feq "sum" 6.0 (H.sum h);
  Alcotest.(check (option feq)) "min" (Some 1.0) (H.min_value h);
  Alcotest.(check (option feq)) "max" (Some 3.0) (H.max_value h);
  Alcotest.(check (option feq)) "mean" (Some 2.0) (H.mean h);
  (* single-sample histograms answer quantiles exactly (clamping) *)
  let h1 = H.create () in
  H.observe h1 0.7234;
  List.iter
    (fun p ->
      Alcotest.(check (option feq))
        (Printf.sprintf "single sample p=%g" p)
        (Some 0.7234) (H.quantile h1 p))
    [ 0.0; 0.5; 0.99; 1.0 ]

(* quantile estimates must agree with exact nearest-rank percentiles to
   within one bucket (a factor of [ratio]) *)
let test_quantile_accuracy () =
  let exact samples p =
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  in
  let rng = Rng.create 99 in
  let samples = List.init 500 (fun _ -> (Rng.float rng *. 10.0) +. 0.001) in
  let h = H.create () in
  List.iter (H.observe h) samples;
  List.iter
    (fun p ->
      let e = exact samples p in
      match H.quantile h p with
      | None -> Alcotest.fail "quantile on non-empty histogram"
      | Some q ->
        if not (q >= e /. H.ratio -. 1e-9 && q <= e *. H.ratio +. 1e-9) then
          Alcotest.failf "p=%g: estimate %g not within a bucket of exact %g" p
            q e)
    [ 0.01; 0.25; 0.5; 0.9; 0.99; 1.0 ]

(* ------------------------------------------------------------------ *)
(* registry: labels, counters, declarations                             *)
(* ------------------------------------------------------------------ *)

let test_labels () =
  let t = Telemetry.create () in
  Telemetry.inc t ~labels:[ ("b", "2"); ("a", "1") ] "x";
  Telemetry.inc t ~labels:[ ("a", "1"); ("b", "2") ] "x";
  (* label order is irrelevant: both hit the same series *)
  Alcotest.(check int) "one series, two increments" 2
    (Telemetry.counter_value t ~labels:[ ("a", "1"); ("b", "2") ] "x");
  Alcotest.check_raises "duplicate keys rejected"
    (Invalid_argument "Telemetry: duplicate label key") (fun () ->
      Telemetry.inc t ~labels:[ ("a", "1"); ("a", "2") ] "x");
  (* distinct label values are distinct series *)
  Telemetry.inc t ~labels:[ ("a", "other") ] "x";
  Alcotest.(check int) "distinct series" 1
    (Telemetry.counter_value t ~labels:[ ("a", "other") ] "x");
  Alcotest.(check int) "unlabeled untouched" 0 (Telemetry.counter_value t "x")

let test_counter_handles () =
  let t = Telemetry.create () in
  Telemetry.inc t ~labels:[ ("kind", "sa") ] "sent";
  (* a handle is the very series [inc] updates, whatever the label order *)
  let h = Telemetry.counter t ~labels:[ ("kind", "sa") ] "sent" in
  Telemetry.incr h;
  Telemetry.incr h;
  Alcotest.(check int) "handle and inc share a series" 3
    (Telemetry.counter_value t ~labels:[ ("kind", "sa") ] "sent");
  (* resolving declares the series at zero, as declare_counter does *)
  let before = List.length (Telemetry.counters t) in
  ignore (Telemetry.counter t ~labels:[ ("kind", "ma") ] "sent");
  Alcotest.(check int) "resolving creates the series" (before + 1)
    (List.length (Telemetry.counters t));
  Alcotest.(check int) "at zero" 0
    (Telemetry.counter_value t ~labels:[ ("kind", "ma") ] "sent")

let test_declarations () =
  let t = Telemetry.create () in
  Telemetry.declare_counter t ~labels:[ ("type", "1") ] "conflicts";
  Telemetry.declare_histogram t "latency";
  Alcotest.(check int) "declared counter exported" 1
    (List.length (Telemetry.counters t));
  (match Telemetry.histograms t with
  | [ (name, [], h) ] ->
    Alcotest.(check string) "declared histogram exported" "latency" name;
    Alcotest.(check int) "empty" 0 (H.count h)
  | _ -> Alcotest.fail "expected exactly one declared histogram");
  (* declaring never resets a live instrument *)
  Telemetry.inc t ~labels:[ ("type", "1") ] "conflicts";
  Telemetry.declare_counter t ~labels:[ ("type", "1") ] "conflicts";
  Alcotest.(check int) "declare is idempotent" 1
    (Telemetry.counter_value t ~labels:[ ("type", "1") ] "conflicts")

(* ------------------------------------------------------------------ *)
(* spans                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_basic () =
  let t = Telemetry.create () in
  Telemetry.span_begin t ~name:"phase" ~key:1 ~now:10.0;
  Alcotest.(check bool) "open" true (Telemetry.span_open t ~name:"phase" ~key:1);
  Alcotest.(check int) "one open span" 1 (Telemetry.open_spans t);
  Telemetry.span_end t ~name:"phase" ~key:1 ~now:12.5;
  Alcotest.(check bool) "closed" false
    (Telemetry.span_open t ~name:"phase" ~key:1);
  (match Telemetry.find_histogram t "phase" with
  | Some h ->
    Alcotest.(check int) "one observation" 1 (H.count h);
    Alcotest.check feq "duration" 2.5 (H.sum h)
  | None -> Alcotest.fail "span end must create the histogram");
  (* distinct keys time the same phase independently *)
  Telemetry.span_begin t ~name:"phase" ~key:1 ~now:20.0;
  Telemetry.span_begin t ~name:"phase" ~key:2 ~now:21.0;
  Telemetry.span_end t ~name:"phase" ~key:2 ~now:25.0;
  Telemetry.span_end t ~name:"phase" ~key:1 ~now:30.0;
  (match Telemetry.find_histogram t "phase" with
  | Some h ->
    Alcotest.(check int) "three observations" 3 (H.count h);
    Alcotest.check feq "summed durations" (2.5 +. 4.0 +. 10.0) (H.sum h)
  | None -> Alcotest.fail "histogram vanished");
  (* labels given at the end select the series *)
  Telemetry.span_begin t ~name:"op" ~key:7 ~now:0.0;
  Telemetry.span_end t ~labels:[ ("outcome", "ok") ] ~name:"op" ~key:7 ~now:1.0;
  Alcotest.(check bool) "labeled series exists" true
    (Telemetry.find_histogram t ~labels:[ ("outcome", "ok") ] "op" <> None)

let test_span_mismatches () =
  let t = Telemetry.create () in
  (* double begin: orphan counted, interval restarted *)
  Telemetry.span_begin t ~name:"s" ~key:1 ~now:0.0;
  Telemetry.span_begin t ~name:"s" ~key:1 ~now:5.0;
  Alcotest.(check int) "orphan counted" 1
    (Telemetry.counter_value t ~labels:[ ("span", "s") ] "telemetry.span_orphaned");
  Telemetry.span_end t ~name:"s" ~key:1 ~now:6.0;
  (match Telemetry.find_histogram t "s" with
  | Some h -> Alcotest.check feq "restarted interval" 1.0 (H.sum h)
  | None -> Alcotest.fail "no histogram");
  (* end without begin: unmatched counted, nothing observed *)
  Telemetry.span_end t ~name:"s" ~key:9 ~now:100.0;
  Alcotest.(check int) "unmatched counted" 1
    (Telemetry.counter_value t ~labels:[ ("span", "s") ]
       "telemetry.span_unmatched");
  (match Telemetry.find_histogram t "s" with
  | Some h -> Alcotest.(check int) "nothing observed" 1 (H.count h)
  | None -> Alcotest.fail "no histogram");
  (* drop abandons silently *)
  Telemetry.span_begin t ~name:"s" ~key:1 ~now:0.0;
  Telemetry.span_drop t ~name:"s" ~key:1;
  Alcotest.(check bool) "dropped" false (Telemetry.span_open t ~name:"s" ~key:1);
  Telemetry.span_end t ~name:"s" ~key:1 ~now:50.0;
  Alcotest.(check int) "end after drop is unmatched" 2
    (Telemetry.counter_value t ~labels:[ ("span", "s") ]
       "telemetry.span_unmatched")

(* ------------------------------------------------------------------ *)
(* trace ring eviction                                                  *)
(* ------------------------------------------------------------------ *)

let test_trace_ring () =
  let limit = 10 in
  let tr = Trace.create ~limit () in
  for i = 1 to 25 do
    Trace.record tr ~time:(float_of_int i) ~tag:"t" (string_of_int i)
  done;
  Alcotest.(check int) "length capped exactly at limit" limit (Trace.length tr);
  let entries = Trace.entries tr in
  Alcotest.(check int) "entries capped" limit (List.length entries);
  (* the survivors are exactly the most recent [limit], in order *)
  List.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "entry %d" i)
        (string_of_int (16 + i))
        e.Trace.detail)
    entries;
  (* iter and fold agree with entries *)
  let via_iter = ref [] in
  Trace.iter tr (fun e -> via_iter := e :: !via_iter);
  Alcotest.(check int) "iter visits all" limit (List.length !via_iter);
  Alcotest.(check string) "iter order" "16"
    (List.nth (List.rev !via_iter) 0).Trace.detail;
  let n = Trace.fold tr ~init:0 (fun a _ -> a + 1) in
  Alcotest.(check int) "fold visits all" limit n;
  (* below the limit nothing is evicted *)
  let tr2 = Trace.create ~limit:100 () in
  for i = 1 to 7 do
    Trace.record tr2 ~time:(float_of_int i) ~tag:"t" (string_of_int i)
  done;
  Alcotest.(check int) "under limit" 7 (Trace.length tr2)

(* ------------------------------------------------------------------ *)
(* exporters                                                            *)
(* ------------------------------------------------------------------ *)

let build_registry () =
  let t = Telemetry.create () in
  Telemetry.inc t ~labels:[ ("type", "1") ] "recsa.conflicts";
  Telemetry.inc t ~labels:[ ("type", "1") ] "recsa.conflicts";
  Telemetry.inc t ~labels:[ ("type", "3") ] "recsa.conflicts";
  List.iter
    (Telemetry.observe t "recsa.replacement_seconds")
    [ 0.5; 1.5; 2.5 ];
  t

let render f t =
  let b = Buffer.create 256 in
  f b t;
  Buffer.contents b

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_prometheus_export () =
  let t = build_registry () in
  let out = render Telemetry.Export.prometheus t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains out needle))
    [
      "# TYPE recsa_conflicts_total counter";
      "recsa_conflicts_total{type=\"1\"} 2";
      "recsa_conflicts_total{type=\"3\"} 1";
      "# TYPE recsa_replacement_seconds histogram";
      "recsa_replacement_seconds_bucket{le=\"+Inf\"} 3";
      "recsa_replacement_seconds_count 3";
      "recsa_replacement_seconds_sum 4.5";
    ];
  (* deterministic: same registry renders byte-identically *)
  Alcotest.(check string) "deterministic" out
    (render Telemetry.Export.prometheus t)

let test_jsonl_export () =
  let t = build_registry () in
  let out = render Telemetry.Export.metrics_jsonl t in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  (* 2 conflict series + 1 histogram *)
  Alcotest.(check int) "one object per series" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object braces" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains out needle))
    [
      "\"kind\":\"counter\"";
      "\"name\":\"recsa.conflicts\"";
      "\"labels\":{\"type\":\"1\"}";
      "\"kind\":\"histogram\"";
      "\"count\":3";
      "\"p50\":";
    ];
  Alcotest.(check string) "deterministic" out
    (render Telemetry.Export.metrics_jsonl t)

let test_json_helpers () =
  Alcotest.(check string) "escape quote" "a\\\"b"
    (Telemetry.Export.json_escape "a\"b");
  Alcotest.(check string) "escape backslash" "a\\\\b"
    (Telemetry.Export.json_escape "a\\b");
  Alcotest.(check string) "escape newline" "a\\nb"
    (Telemetry.Export.json_escape "a\nb");
  Alcotest.(check string) "integral float" "2.0"
    (Telemetry.Export.json_float 2.0);
  Alcotest.(check string) "nan is null" "null"
    (Telemetry.Export.json_float Float.nan);
  Alcotest.(check string) "inf is null" "null"
    (Telemetry.Export.json_float Float.infinity)

(* The shared reader accepts what the exporters write and nothing a JSON
   parser would refuse: a value starts only with a minus sign, a digit, a
   quote, a brace, a bracket or a literal. *)
let test_json_reader () =
  let module J = Telemetry.Json in
  let accepts label s expected =
    match J.parse s with
    | Ok v -> Alcotest.(check bool) label true (v = expected)
    | Error e -> Alcotest.failf "%s rejected: %s" label e
  in
  let rejects label s =
    match J.parse s with
    | Ok _ -> Alcotest.failf "%s was accepted" label
    | Error _ -> ()
  in
  accepts "object" " {\"a\":[1,-2.5e3,true,null],\"b\":\"x\\ny\"} "
    (J.Obj [ ("a", J.Arr [ J.Num 1.0; J.Num (-2500.0); J.Bool true; J.Null ]); ("b", J.Str "x\ny") ]);
  accepts "unicode escape" "\"\\u00e9\"" (J.Str "\xc3\xa9");
  accepts "exponent float" "1e+30" (J.Num 1e30);
  List.iter
    (fun (label, s) -> rejects label s)
    [
      ("leading plus", "+1");
      ("leading dot", ".5");
      ("trailing dot", "1.");
      ("leading zero", "01");
      ("nan", "nan");
      ("bare word", "abc");
      ("raw control character", "\"a\tb\"");
      ("bad escape", "\"\\x\"");
      ("trailing comma", "[1,]");
      ("trailing garbage", "{} {}");
      ("empty", "");
    ];
  (* every exported line parses *)
  let t = build_registry () in
  String.split_on_char '\n' (render Telemetry.Export.metrics_jsonl t)
  |> List.iter (fun l ->
         if l <> "" then
           match J.parse l with
           | Ok (J.Obj _) -> ()
           | Ok _ | Error _ -> Alcotest.failf "exported line unreadable: %s" l)

let suites =
  [
    ( "telemetry",
      [
        Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
        Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
        Alcotest.test_case "quantile accuracy" `Quick test_quantile_accuracy;
        Alcotest.test_case "labels" `Quick test_labels;
        Alcotest.test_case "counter handles" `Quick test_counter_handles;
        Alcotest.test_case "declarations" `Quick test_declarations;
        Alcotest.test_case "span basic" `Quick test_span_basic;
        Alcotest.test_case "span mismatches" `Quick test_span_mismatches;
        Alcotest.test_case "trace ring eviction" `Quick test_trace_ring;
        Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
        Alcotest.test_case "jsonl export" `Quick test_jsonl_export;
        Alcotest.test_case "json helpers" `Quick test_json_helpers;
        Alcotest.test_case "json reader" `Quick test_json_reader;
      ] );
  ]

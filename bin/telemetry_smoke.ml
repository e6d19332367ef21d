(* telemetry-smoke — end-to-end check of the telemetry exporters.

   Runs a short transient-fault recovery in-process, renders the
   resulting registry in both export formats (plus the event trace as
   JSONL), validates each (JSONL lines with the shared reader
   [Telemetry.Json], Prometheus text with a hand-rolled line checker),
   checks that the metric families the scheme promises are present, and
   confirms that two identical-seed runs yield byte-identical exports.
   Exits nonzero on any failure, so `dune build @telemetry-smoke` is a
   CI gate. *)

open Sim
open Reconfig

let fail fmt =
  Format.kasprintf
    (fun s ->
      prerr_endline ("telemetry-smoke: FAIL: " ^ s);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* the scenario                                                         *)
(* ------------------------------------------------------------------ *)

let run_scenario () =
  let n = 5 and seed = 7 in
  let members = List.init n (fun i -> i + 1) in
  let sys =
    Stack.of_scenario ~hooks:Stack.unit_hooks
      (Scenario.make ~seed ~loss:0.02 ~n_bound:(2 * n) ~members ())
  in
  Stack.run_rounds sys 30;
  Stack.corrupt_everything sys ~rng:(Rng.create (seed + 1));
  ignore (Stack.run_until_quiescent sys ~max_rounds:500);
  sys

let render sys =
  let tele = Engine.telemetry (Stack.engine sys) in
  let prom = Buffer.create 4096 in
  Telemetry.Export.prometheus prom tele;
  let ml = Buffer.create 4096 in
  Telemetry.Export.metrics_jsonl ml tele;
  let tr = Buffer.create 4096 in
  Trace.iter
    (Engine.trace (Stack.engine sys))
    (fun e ->
      Buffer.add_string tr (Trace.entry_json e);
      Buffer.add_char tr '\n');
  (Buffer.contents prom, Buffer.contents ml, Buffer.contents tr)

(* ------------------------------------------------------------------ *)
(* JSONL validation: every line one JSON object                         *)
(* ------------------------------------------------------------------ *)

let validate_jsonl ~what text =
  let count = ref 0 in
  List.iter
    (fun line ->
      if line <> "" then begin
        incr count;
        match Telemetry.Json.parse line with
        | Ok (Telemetry.Json.Obj _) -> ()
        | Ok _ -> fail "%s: not a JSON object: %s" what line
        | Error msg -> fail "%s: %s in: %s" what msg line
      end)
    (String.split_on_char '\n' text);
  if !count = 0 then fail "%s: empty output" what;
  !count

(* ------------------------------------------------------------------ *)
(* hand-rolled Prometheus text-exposition validator                     *)
(* ------------------------------------------------------------------ *)

let validate_prometheus text =
  let count = ref 0 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: _name :: [ kind ] ->
          if not (List.mem kind [ "counter"; "histogram" ]) then
            fail "prometheus: unknown TYPE kind: %s" line
        | "#" :: "HELP" :: _ -> ()
        | _ -> fail "prometheus: malformed comment: %s" line
      end
      else begin
        incr count;
        (* name{labels} value  |  name value — our label values never
           contain spaces, so the value is everything after the last one. *)
        match String.rindex_opt line ' ' with
        | None -> fail "prometheus: malformed sample: %s" line
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (match float_of_string_opt v with
          | Some _ -> ()
          | None -> fail "prometheus: unparseable value: %s" line);
          let name_part = String.sub line 0 i in
          let name =
            match String.index_opt name_part '{' with
            | Some j ->
              if name_part.[String.length name_part - 1] <> '}' then
                fail "prometheus: unclosed label set: %s" line;
              String.sub name_part 0 j
            | None -> name_part
          in
          if name = "" then fail "prometheus: empty metric name: %s" line;
          String.iter
            (fun c ->
              match c with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
              | _ -> fail "prometheus: bad metric name: %s" line)
            name
      end)
    (String.split_on_char '\n' text);
  !count

(* ------------------------------------------------------------------ *)
(* required families                                                    *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let required_prom =
  [
    "recsa_replacement_seconds_bucket";
    "recsa_reset_recovery_seconds_bucket";
    "recsa_brute_force_total";
    "recsa_conflicts_total{type=\"1\"}";
    "recsa_conflicts_total{type=\"2\"}";
    "recsa_conflicts_total{type=\"3\"}";
    "recsa_conflicts_total{type=\"4\"}";
    "join_handshake_seconds_bucket";
    "counter_op_seconds_bucket";
    "vs_view_change_seconds_bucket";
    "stack_sent_total{kind=\"sa\"}";
  ]

let required_jsonl =
  [
    "\"name\":\"recsa.replacement_seconds\"";
    "\"name\":\"recsa.brute_force\"";
    "\"name\":\"recsa.conflicts\"";
    "\"name\":\"join.handshake_seconds\"";
    "\"name\":\"counter.op_seconds\"";
    "\"name\":\"stack.sent\"";
  ]

(* ------------------------------------------------------------------ *)

let () =
  let sys1 = run_scenario () in
  let prom1, ml1, tr1 = render sys1 in
  let prom_samples = validate_prometheus prom1 in
  let metric_lines = validate_jsonl ~what:"metrics jsonl" ml1 in
  let trace_lines = validate_jsonl ~what:"trace jsonl" tr1 in
  List.iter
    (fun needle ->
      if not (contains prom1 needle) then
        fail "prometheus output is missing %s" needle)
    required_prom;
  List.iter
    (fun needle ->
      if not (contains ml1 needle) then
        fail "metrics jsonl output is missing %s" needle)
    required_jsonl;
  let sys2 = run_scenario () in
  let prom2, ml2, tr2 = render sys2 in
  if prom1 <> prom2 then fail "identical seeds: prometheus exports differ";
  if ml1 <> ml2 then fail "identical seeds: metrics jsonl exports differ";
  if tr1 <> tr2 then fail "identical seeds: trace jsonl exports differ";
  Printf.printf
    "telemetry-smoke: OK (%d prometheus samples, %d metric rows, %d trace \
     events; identical-seed runs byte-identical)\n"
    prom_samples metric_lines trace_lines

(* Shared command-line vocabulary for reconfig-sim.

   Every subcommand that runs a system is configured the same way: the
   flags below build one Reconfig.Scenario.t (topology, seed, channel
   model), and the subcommand hands it to Stack.of_scenario; the sink
   flags build a [sinks] record that [export] writes once the run is
   over. Adding a knob means adding it here once, not in five argument
   lists. *)

open Cmdliner
open Reconfig

let jobs_arg =
  Arg.(
    value
    & opt int (Harness.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run simulation cells on $(docv) domains. Table output is \
           byte-identical for any job count (default: the number of \
           available cores).")

let n_arg =
  Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of initial members.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let loss_arg =
  Arg.(value & opt float 0.02 & info [ "loss" ] ~docv:"P" ~doc:"Packet loss probability.")

(* The scenario every run-flavoured subcommand shares. The fault plan rides
   separately ({!plan_term}) because only some subcommands accept one.
   Values Scenario.make rejects (no members, loss outside [0,1]) are usage
   errors, not crashes. *)
let scenario_term =
  let build n seed loss =
    match Scenario.make ~seed ~loss ~nodes:n () with
    | sc -> `Ok sc
    | exception Invalid_argument msg -> `Error (true, msg)
  in
  Term.(ret (const build $ n_arg $ seed_arg $ loss_arg))

(* Where a run's telemetry and trace go; [None] writes nothing. *)
type sinks = {
  metrics_out : string option;  (** Prometheus text exposition *)
  metrics_jsonl : string option;  (** telemetry as JSON Lines *)
  trace_out : string option;  (** event trace as JSON Lines *)
}

let sinks_term =
  let path names docv doc = Arg.(value & opt (some string) None & info names ~docv ~doc) in
  let metrics_out =
    path [ "metrics-out" ] "FILE"
      "Write the run's telemetry registry to $(docv) in Prometheus text \
       exposition format."
  in
  let metrics_jsonl =
    path [ "metrics-jsonl" ] "FILE" "Write the run's telemetry registry to $(docv) as JSON Lines."
  in
  let trace_out =
    path [ "trace-out" ] "FILE" "Write the run's event trace to $(docv) as JSON Lines."
  in
  Term.(
    const (fun metrics_out metrics_jsonl trace_out -> { metrics_out; metrics_jsonl; trace_out })
    $ metrics_out $ metrics_jsonl $ trace_out)

let plan_term =
  let plan_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan" ] ~docv:"FILE" ~doc:"Load the fault plan from $(docv) (JSON).")
  in
  let plan_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "plan-json" ] ~docv:"JSON" ~doc:"Inline fault plan as JSON text.")
  in
  let build file json =
    match (file, json) with
    | Some _, Some _ ->
      `Error (true, "--plan and --plan-json are mutually exclusive")
    | None, None -> `Ok None
    | Some f, None -> (
      match Faults.Fault_plan.of_file f with
      | Ok p -> `Ok (Some p)
      | Error e -> `Error (false, Printf.sprintf "--plan %s: %s" f e))
    | None, Some s -> (
      match Faults.Fault_plan.of_json s with
      | Ok p -> `Ok (Some p)
      | Error e -> `Error (false, Printf.sprintf "--plan-json: %s" e))
  in
  Term.(ret (const build $ plan_file $ plan_json))

(* Write the run's telemetry/trace to whichever sinks are named. All
   three renderings are deterministic for a fixed seed: the registry reads
   only virtual time and exports are sorted. *)
let export sys sinks =
  let eng = Stack.engine sys in
  let tele = Sim.Engine.telemetry eng and trace = Sim.Engine.trace eng in
  let dump path render =
    match path with
    | None -> ()
    | Some path ->
      let buf = Buffer.create 4096 in
      render buf;
      let oc = open_out path in
      Buffer.output_buffer oc buf;
      close_out oc;
      Format.eprintf "wrote %s@." path
  in
  dump sinks.metrics_out (fun buf -> Telemetry.Export.prometheus buf tele);
  dump sinks.metrics_jsonl (fun buf -> Telemetry.Export.metrics_jsonl buf tele);
  dump sinks.trace_out (fun buf ->
      Sim.Trace.iter trace (fun e ->
          Buffer.add_string buf (Sim.Trace.entry_json e);
          Buffer.add_char buf '\n'))

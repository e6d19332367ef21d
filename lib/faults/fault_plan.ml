open Sim

type link_profile = Engine.link_profile = {
  lp_drop : float;
  lp_dup : float;
  lp_flip : float;
}

let lossy p = { lp_drop = p; lp_dup = 0.0; lp_flip = 0.0 }
let dead = lossy 1.0

type target = All | Pids of Pid.t list | Sample of int

type event =
  | Corrupt_nodes of target
  | Corrupt_channels of target
  | Degrade_links of { src : target; dst : target; profile : link_profile }
  | Restore_links of { src : target; dst : target }
  | Partition of { group : target; heal_after : int }
  | Heal
  | Crash of target
  | Join of Pid.t list

type entry = { at : int; event : event }
type t = { seed : int; entries : entry list }

(* --- building --- *)

let sort_entries entries =
  List.stable_sort (fun a b -> Int.compare a.at b.at) entries

let empty = { seed = 7; entries = [] }
let make ?(seed = 7) entries = { seed; entries = sort_entries entries }
let at at event = { at; event }
let add t ~at:r event = { t with entries = sort_entries ({ at = r; event } :: t.entries) }

let storm ~seed ~start ~rounds ~rate =
  let rng = Rng.create seed in
  let entries = ref [] in
  for r = start to start + rounds - 1 do
    if Rng.chance rng rate then
      entries := { at = r; event = Corrupt_nodes (Sample 1) } :: !entries
  done;
  List.rev !entries

(* --- observation --- *)

let kind = function
  | Corrupt_nodes _ -> "corrupt_nodes"
  | Corrupt_channels _ -> "corrupt_channels"
  | Degrade_links _ -> "degrade_links"
  | Restore_links _ -> "restore_links"
  | Partition _ -> "partition"
  | Heal -> "heal"
  | Crash _ -> "crash"
  | Join _ -> "join"

let kinds =
  [
    "corrupt_nodes";
    "corrupt_channels";
    "degrade_links";
    "restore_links";
    "partition";
    "heal";
    "crash";
    "join";
  ]

let equal a b = a = b

let pp_target fmt = function
  | All -> Format.pp_print_string fmt "all"
  | Pids l ->
    Format.fprintf fmt "[%a]"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_string f ",") Pid.pp)
      l
  | Sample k -> Format.fprintf fmt "sample(%d)" k

let pp fmt t =
  Format.fprintf fmt "@[<v>plan seed=%d" t.seed;
  List.iter
    (fun e ->
      Format.fprintf fmt "@,  @@%d %s" e.at (kind e.event);
      match e.event with
      | Corrupt_nodes tg | Corrupt_channels tg | Crash tg ->
        Format.fprintf fmt " %a" pp_target tg
      | Degrade_links { src; dst; profile } ->
        Format.fprintf fmt " %a->%a drop=%g dup=%g flip=%g" pp_target src pp_target
          dst profile.lp_drop profile.lp_dup profile.lp_flip
      | Restore_links { src; dst } ->
        Format.fprintf fmt " %a->%a" pp_target src pp_target dst
      | Partition { group; heal_after } ->
        Format.fprintf fmt " %a heal_after=%d" pp_target group heal_after
      | Heal -> ()
      | Join pids -> Format.fprintf fmt " %a" pp_target (Pids pids))
    t.entries;
  Format.fprintf fmt "@]"

(* --- JSON rendering --- *)

let buf_target b = function
  | All -> Buffer.add_string b "\"all\""
  | Pids l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (string_of_int p))
      l;
    Buffer.add_char b ']'
  | Sample k -> Buffer.add_string b (Printf.sprintf "{\"sample\":%d}" k)

let buf_float b f =
  (* probabilities: a fixed, round-trippable decimal rendering *)
  Buffer.add_string b (Telemetry.Export.json_float f)

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "{\"seed\":%d,\"events\":[" t.seed);
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"at\":%d,\"kind\":\"%s\"" e.at (kind e.event));
      (match e.event with
      | Corrupt_nodes tg | Corrupt_channels tg | Crash tg ->
        Buffer.add_string b ",\"target\":";
        buf_target b tg
      | Degrade_links { src; dst; profile } ->
        Buffer.add_string b ",\"src\":";
        buf_target b src;
        Buffer.add_string b ",\"dst\":";
        buf_target b dst;
        Buffer.add_string b ",\"drop\":";
        buf_float b profile.lp_drop;
        Buffer.add_string b ",\"dup\":";
        buf_float b profile.lp_dup;
        Buffer.add_string b ",\"flip\":";
        buf_float b profile.lp_flip
      | Restore_links { src; dst } ->
        Buffer.add_string b ",\"src\":";
        buf_target b src;
        Buffer.add_string b ",\"dst\":";
        buf_target b dst
      | Partition { group; heal_after } ->
        Buffer.add_string b ",\"group\":";
        buf_target b group;
        Buffer.add_string b (Printf.sprintf ",\"heal_after\":%d" heal_after)
      | Heal -> ()
      | Join pids ->
        Buffer.add_string b ",\"pids\":";
        buf_target b (Pids pids));
      Buffer.add_char b '}')
    t.entries;
  Buffer.add_string b "]}";
  Buffer.contents b

(* --- decoding a plan out of the generic tree --- *)

let pid_limit = 1 lsl Pid.key_bits

exception Invalid_plan of string

let decode (j : Telemetry.Json.t) : t =
  let open Telemetry.Json in
  let fail msg = raise (Invalid_plan msg) in
  let field obj key =
    match List.assoc_opt key obj with
    | Some v -> v
    | None -> fail (Printf.sprintf "missing field \"%s\"" key)
  in
  (* [int_of_float] is unspecified outside the int range, so values
     outside [min_int, -min_int) — both bounds exact floats — are refused *)
  let as_int ctx = function
    | Num f when Float.is_integer f ->
      if f >= Float.of_int min_int && f < -.Float.of_int min_int then int_of_float f
      else fail (Printf.sprintf "%s: integer %g out of range" ctx f)
    | _ -> fail (Printf.sprintf "%s: expected an integer" ctx)
  in
  let as_prob ctx = function
    | Num f when f >= 0.0 && f <= 1.0 -> f
    | _ -> fail (Printf.sprintf "%s: expected a probability in [0,1]" ctx)
  in
  let as_pid ctx v =
    let p = as_int ctx v in
    if p < 0 || p >= pid_limit then
      fail (Printf.sprintf "%s: pid %d out of range [0, 2^%d)" ctx p Pid.key_bits);
    p
  in
  let as_pids ctx = function
    | Arr l -> List.map (as_pid ctx) l
    | _ -> fail (Printf.sprintf "%s: expected a pid array" ctx)
  in
  let as_target ctx = function
    | Str "all" -> All
    | Arr _ as l -> Pids (as_pids ctx l)
    | Obj o ->
      let k = as_int (ctx ^ ".sample") (field o "sample") in
      if k <= 0 then fail (Printf.sprintf "%s: sample size must be positive" ctx);
      Sample k
    | _ -> fail (Printf.sprintf "%s: expected \"all\", a pid array or {\"sample\":k}" ctx)
  in
  match j with
  | Obj top ->
    let seed = as_int "seed" (field top "seed") in
    let events =
      match field top "events" with
      | Arr l -> l
      | _ -> fail "\"events\": expected an array"
    in
    let entry = function
      | Obj o ->
        let r = as_int "at" (field o "at") in
        if r < 0 then fail "\"at\": round must be non-negative";
        let kind =
          match field o "kind" with
          | Str k -> k
          | _ -> fail "\"kind\": expected a string"
        in
        let event =
          match kind with
          | "corrupt_nodes" -> Corrupt_nodes (as_target "target" (field o "target"))
          | "corrupt_channels" ->
            Corrupt_channels (as_target "target" (field o "target"))
          | "degrade_links" ->
            Degrade_links
              {
                src = as_target "src" (field o "src");
                dst = as_target "dst" (field o "dst");
                profile =
                  {
                    lp_drop = as_prob "drop" (field o "drop");
                    lp_dup = as_prob "dup" (field o "dup");
                    lp_flip = as_prob "flip" (field o "flip");
                  };
              }
          | "restore_links" ->
            Restore_links
              { src = as_target "src" (field o "src"); dst = as_target "dst" (field o "dst") }
          | "partition" ->
            let heal_after = as_int "heal_after" (field o "heal_after") in
            if heal_after < 0 then fail "\"heal_after\" must be non-negative";
            Partition { group = as_target "group" (field o "group"); heal_after }
          | "heal" -> Heal
          | "crash" -> Crash (as_target "target" (field o "target"))
          | "join" -> Join (as_pids "pids" (field o "pids"))
          | k -> fail (Printf.sprintf "unknown event kind \"%s\"" k)
        in
        { at = r; event }
      | _ -> fail "\"events\": expected objects"
    in
    make ~seed (List.map entry events)
  | _ -> fail "expected a top-level object"

let of_json s =
  Result.bind (Telemetry.Json.parse s) (fun j ->
      match decode j with t -> Ok t | exception Invalid_plan msg -> Error msg)

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_json contents
  | exception Sys_error msg -> Error msg

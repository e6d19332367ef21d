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
let with_seed t seed = { t with seed }

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

let last_round t =
  List.fold_left
    (fun acc e ->
      let last =
        match e.event with
        | Partition { heal_after; _ } -> e.at + heal_after
        | _ -> e.at
      in
      max acc last)
    (-1) t.entries

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

(* --- a minimal JSON parser (the toolchain has no JSON library; plans only
   need objects, arrays, strings, numbers and literals) --- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Parse_error of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail "invalid \\u escape"
          in
          (* plans are ASCII; anything exotic degrades to '?' *)
          if code < 128 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?'
        | _ -> fail "invalid escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when is_num_char c -> true | _ -> false) do
      advance ()
    done;
    if !pos = start then fail "expected a number";
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail (Printf.sprintf "invalid number '%s'" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Jobj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((key, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Jobj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Jarr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Jarr (elements [])
      end
    | Some 't' -> literal "true" (Jbool true)
    | Some 'f' -> literal "false" (Jbool false)
    | Some 'n' -> literal "null" Jnull
    | Some _ -> Jnum (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* --- decoding a plan out of the generic tree --- *)

let pid_limit = 1 lsl Pid.key_bits

let decode (j : json) : t =
  let fail msg = raise (Parse_error msg) in
  let field obj key =
    match List.assoc_opt key obj with
    | Some v -> v
    | None -> fail (Printf.sprintf "missing field \"%s\"" key)
  in
  let as_int ctx = function
    | Jnum f when Float.is_integer f -> int_of_float f
    | _ -> fail (Printf.sprintf "%s: expected an integer" ctx)
  in
  let as_prob ctx = function
    | Jnum f when f >= 0.0 && f <= 1.0 -> f
    | _ -> fail (Printf.sprintf "%s: expected a probability in [0,1]" ctx)
  in
  let as_pid ctx v =
    let p = as_int ctx v in
    if p < 0 || p >= pid_limit then
      fail (Printf.sprintf "%s: pid %d out of range [0, 2^%d)" ctx p Pid.key_bits);
    p
  in
  let as_pids ctx = function
    | Jarr l -> List.map (as_pid ctx) l
    | _ -> fail (Printf.sprintf "%s: expected a pid array" ctx)
  in
  let as_target ctx = function
    | Jstr "all" -> All
    | Jarr _ as l -> Pids (as_pids ctx l)
    | Jobj o ->
      let k = as_int (ctx ^ ".sample") (field o "sample") in
      if k <= 0 then fail (Printf.sprintf "%s: sample size must be positive" ctx);
      Sample k
    | _ -> fail (Printf.sprintf "%s: expected \"all\", a pid array or {\"sample\":k}" ctx)
  in
  match j with
  | Jobj top ->
    let seed = as_int "seed" (field top "seed") in
    let events =
      match field top "events" with
      | Jarr l -> l
      | _ -> fail "\"events\": expected an array"
    in
    let entry = function
      | Jobj o ->
        let r = as_int "at" (field o "at") in
        if r < 0 then fail "\"at\": round must be non-negative";
        let kind =
          match field o "kind" with
          | Jstr k -> k
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
  match decode (parse_json s) with
  | t -> Ok t
  | exception Parse_error msg -> Error msg

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> of_json contents
  | exception Sys_error msg -> Error msg

type labels = (string * string) list

(* ------------------------------------------------------------------ *)
(* Bounded log-scale histograms                                        *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  let buckets = 40
  let least = 0.001
  let ratio = 2.0

  let bounds =
    Array.init buckets (fun i -> least *. (ratio ** float_of_int i))

  let bound i =
    if i < 0 || i >= buckets then invalid_arg "Telemetry.Histogram.bound"
    else bounds.(i)

  (* Smallest i with v <= bounds.(i); [buckets] for the overflow bucket.
     The log gives the index directly; one step of adjustment absorbs
     floating-point error at the exact bucket boundaries. *)
  let bucket_index v =
    if not (v > least) then 0
    else begin
      let raw = Float.log (v /. least) /. Float.log ratio in
      let i = ref (max 0 (min buckets (int_of_float (Float.ceil raw)))) in
      while !i > 0 && v <= bounds.(!i - 1) do
        decr i
      done;
      while !i < buckets && v > bounds.(!i) do
        incr i
      done;
      !i
    end

  type h = {
    counts : int array; (* length buckets + 1; last is overflow *)
    mutable n : int;
    mutable sum : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () =
    { counts = Array.make (buckets + 1) 0; n = 0; sum = 0.0; mn = infinity; mx = neg_infinity }

  let observe h v =
    let i = bucket_index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1;
    h.sum <- h.sum +. v;
    if v < h.mn then h.mn <- v;
    if v > h.mx then h.mx <- v

  let count h = h.n
  let sum h = h.sum
  let min_value h = if h.n = 0 then None else Some h.mn
  let max_value h = if h.n = 0 then None else Some h.mx
  let mean h = if h.n = 0 then None else Some (h.sum /. float_of_int h.n)

  let quantile h p =
    if h.n = 0 then None
    else begin
      let rank =
        max 1 (min h.n (int_of_float (Float.ceil (p *. float_of_int h.n))))
      in
      let rec find i acc =
        let acc = acc + h.counts.(i) in
        if acc >= rank || i = buckets then i else find (i + 1) acc
      in
      let i = find 0 0 in
      let raw = if i >= buckets then h.mx else bounds.(i) in
      Some (Float.max h.mn (Float.min h.mx raw))
    end

  let cumulative h =
    let acc = ref 0 in
    List.init buckets (fun i ->
        acc := !acc + h.counts.(i);
        (bounds.(i), !acc))
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type 'v series = { s_name : string; s_labels : labels; mutable s_value : 'v }

type t = {
  t_counters : (string, int series) Hashtbl.t;
  t_hists : (string, Histogram.h series) Hashtbl.t;
  t_spans : (string, float) Hashtbl.t; (* (name, key) -> begin time *)
}

let create () =
  {
    t_counters = Hashtbl.create 64;
    t_hists = Hashtbl.create 32;
    t_spans = Hashtbl.create 16;
  }

let normalize_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> String.equal a b || dup rest
    | [ _ ] | [] -> false
  in
  if dup sorted then invalid_arg "Telemetry: duplicate label key";
  sorted

let series_key name labels =
  let b = Buffer.create (String.length name + 16) in
  Buffer.add_string b name;
  List.iter
    (fun (k, v) ->
      Buffer.add_char b '\x00';
      Buffer.add_string b k;
      Buffer.add_char b '\x01';
      Buffer.add_string b v)
    labels;
  Buffer.contents b

let find_series table ~default name labels =
  let labels = normalize_labels labels in
  let key = series_key name labels in
  match Hashtbl.find_opt table key with
  | Some s -> s
  | None ->
    let s = { s_name = name; s_labels = labels; s_value = default () } in
    Hashtbl.add table key s;
    s

(* counters *)

type counter = int series

let counter t ?(labels = []) name =
  find_series t.t_counters ~default:(fun () -> 0) name labels

let incr c = c.s_value <- c.s_value + 1

let add t ?labels name n =
  let s = counter t ?labels name in
  s.s_value <- s.s_value + n

let inc t ?labels name = add t ?labels name 1
let declare_counter t ?labels name = add t ?labels name 0

let counter_value t ?(labels = []) name =
  let labels = normalize_labels labels in
  match Hashtbl.find_opt t.t_counters (series_key name labels) with
  | Some s -> s.s_value
  | None -> 0

(* histograms *)

let histogram t ?(labels = []) name =
  (find_series t.t_hists ~default:Histogram.create name labels).s_value

let declare_histogram t ?labels name = ignore (histogram t ?labels name)
let observe t ?labels name v = Histogram.observe (histogram t ?labels name) v

let find_histogram t ?(labels = []) name =
  let labels = normalize_labels labels in
  match Hashtbl.find_opt t.t_hists (series_key name labels) with
  | Some s -> Some s.s_value
  | None -> None

(* spans *)

let span_key name key = name ^ "\x00" ^ string_of_int key

let span_begin t ~name ~key ~now =
  let k = span_key name key in
  if Hashtbl.mem t.t_spans k then
    inc t ~labels:[ ("span", name) ] "telemetry.span_orphaned";
  Hashtbl.replace t.t_spans k now

let span_end ?labels t ~name ~key ~now =
  let k = span_key name key in
  match Hashtbl.find_opt t.t_spans k with
  | Some started ->
    Hashtbl.remove t.t_spans k;
    observe t ?labels name (now -. started)
  | None -> inc t ~labels:[ ("span", name) ] "telemetry.span_unmatched"

let span_drop t ~name ~key = Hashtbl.remove t.t_spans (span_key name key)
let span_open t ~name ~key = Hashtbl.mem t.t_spans (span_key name key)
let open_spans t = Hashtbl.length t.t_spans

(* export iteration *)

let sorted_rows table =
  Hashtbl.fold (fun _ s acc -> (s.s_name, s.s_labels, s.s_value) :: acc) table []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) ->
         match String.compare n1 n2 with 0 -> compare l1 l2 | c -> c)

let counters t = sorted_rows t.t_counters
let histograms t = sorted_rows t.t_hists

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

module Export = struct
  let json_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let json_float f =
    if not (Float.is_finite f) then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f

  let json_labels b labels =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      labels;
    Buffer.add_char b '}'

  let json_opt_float = function None -> "null" | Some f -> json_float f

  let metrics_jsonl b t =
    List.iter
      (fun (name, labels, v) ->
        Buffer.add_string b
          (Printf.sprintf "{\"kind\":\"counter\",\"name\":\"%s\",\"labels\":"
             (json_escape name));
        json_labels b labels;
        Buffer.add_string b (Printf.sprintf ",\"value\":%d}\n" v))
      (counters t);
    List.iter
      (fun (name, labels, h) ->
        let q p = json_opt_float (Histogram.quantile h p) in
        Buffer.add_string b
          (Printf.sprintf "{\"kind\":\"histogram\",\"name\":\"%s\",\"labels\":"
             (json_escape name));
        json_labels b labels;
        Buffer.add_string b
          (Printf.sprintf
             ",\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"buckets\":["
             (Histogram.count h)
             (json_float (Histogram.sum h))
             (json_opt_float (Histogram.min_value h))
             (json_opt_float (Histogram.max_value h))
             (q 0.50) (q 0.90) (q 0.99));
        (* only the cumulative steps that advance: short, stable lines *)
        let prev = ref 0 in
        let first = ref true in
        List.iter
          (fun (bound, cum) ->
            if cum > !prev then begin
              if not !first then Buffer.add_char b ',';
              first := false;
              Buffer.add_string b (Printf.sprintf "[%s,%d]" (json_float bound) cum);
              prev := cum
            end)
          (Histogram.cumulative h);
        Buffer.add_string b "]}\n")
      (histograms t)

  let sanitize_name name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name

  let prom_escape s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let prom_labels labels =
    match labels with
    | [] -> ""
    | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_name k) (prom_escape v))
             labels)
      ^ "}"

  let prom_float f =
    if Float.is_nan f then "NaN"
    else if f = Float.infinity then "+Inf"
    else if f = Float.neg_infinity then "-Inf"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.17g" f

  let type_line b name kind =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)

  (* rows arrive sorted by (name, labels); fold into (name, row list) runs *)
  let group_by_name rows =
    let rec go acc cur = function
      | [] ->
        List.rev
          (match cur with None -> acc | Some (n, rs) -> (n, List.rev rs) :: acc)
      | (name, labels, v) :: rest -> (
        match cur with
        | Some (n, rs) when String.equal n name ->
          go acc (Some (n, (labels, v) :: rs)) rest
        | Some (n, rs) ->
          go ((n, List.rev rs) :: acc) (Some (name, [ (labels, v) ])) rest
        | None -> go acc (Some (name, [ (labels, v) ])) rest)
    in
    go [] None rows

  let prometheus b t =
    List.iter
      (fun (name, rows) ->
        let pname = sanitize_name name ^ "_total" in
        type_line b pname "counter";
        List.iter
          (fun (labels, v) ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" pname (prom_labels labels) v))
          rows)
      (group_by_name (counters t));
    List.iter
      (fun (name, rows) ->
        let pname = sanitize_name name in
        type_line b pname "histogram";
        List.iter
          (fun (labels, h) ->
            let with_le le = prom_labels (labels @ [ ("le", le) ]) in
            List.iter
              (fun (bound, cum) ->
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" pname
                     (with_le (prom_float bound)) cum))
              (Histogram.cumulative h);
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" pname (with_le "+Inf")
                 (Histogram.count h));
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %s\n" pname (prom_labels labels)
                 (prom_float (Histogram.sum h)));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" pname (prom_labels labels)
                 (Histogram.count h)))
          rows)
      (group_by_name (histograms t))
end

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = Stdlib.incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance () else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected '%s'" word)
    in
    let hex_digit () =
      let d =
        match peek () with
        | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
        | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
        | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid \\u escape"
      in
      advance ();
      d
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' ->
          advance ();
          Buffer.contents b
        | Some '\\' ->
          advance ();
          let e = match peek () with Some e -> e | None -> fail "unterminated escape" in
          advance ();
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let code = List.fold_left (fun acc _ -> (acc * 16) + hex_digit ()) 0 [ 1; 2; 3; 4 ] in
            (* a lone surrogate half is no character; keep a placeholder *)
            if Uchar.is_valid code then Buffer.add_utf_8_uchar b (Uchar.of_int code)
            else Buffer.add_char b '?'
          | _ -> fail "invalid escape");
          go ()
        | Some c when Char.code c < 0x20 -> fail "control character in string"
        | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
      in
      go ()
    in
    (* RFC 8259 number grammar: -?(0|[1-9][0-9]* )(.[0-9]+)?([eE][+-]?[0-9]+)? *)
    let parse_number () =
      let start = !pos in
      let digits () =
        let from = !pos in
        while match peek () with Some '0' .. '9' -> true | _ -> false do
          advance ()
        done;
        if !pos = from then fail "expected a digit"
      in
      if peek () = Some '-' then advance ();
      (match peek () with
      | Some '0' -> advance ()
      | _ -> digits ());
      if peek () = Some '.' then begin
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      float_of_string (String.sub s start (!pos - start))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
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
              Obj (List.rev ((key, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> Num (parse_number ())
      | Some _ -> fail "expected a value"
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg
end

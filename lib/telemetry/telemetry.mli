(** Labeled metrics and phase spans.

    A {!t} is a registry of named instruments, each optionally refined by a
    sorted list of [(key, value)] labels (one time series per distinct
    label set, Prometheus-style):

    - {e counters} — monotonically increasing integers;
    - {e histograms} — bounded log-scale bucket histograms
      ({!Histogram}): O(1) observe, running count/sum/min/max, and
      quantile estimates accurate to one bucket (a factor of
      {!Histogram.ratio});
    - {e spans} — phase timers keyed by [(name, key)]: {!span_begin} /
      {!span_end} pairs feed the duration into the histogram [name].

    The registry performs no I/O and never reads a clock: all times are
    passed in by the caller (virtual time under the simulator, wall clock
    in a real-time runtime), so exports from a seeded simulation are
    byte-identical across runs. {!Export} renders the JSONL and Prometheus
    text formats. *)

(** Label sets. Order is irrelevant: labels are sorted by key on entry.
    Duplicate keys are an error ([Invalid_argument]). *)
type labels = (string * string) list

type t

val create : unit -> t

(** {2 Bounded histograms} *)

module Histogram : sig
  type h

  (** Bucket [i] (0-based) covers values [v <= bound i]; values above the
      last bound land in an overflow (+Inf) bucket. Bounds grow
      geometrically: [bound i = least *. ratio^i]. *)

  val buckets : int
  (** Number of finite buckets (the overflow bucket is extra). *)

  val least : float
  (** Upper bound of bucket 0. *)

  val ratio : float
  (** Geometric growth factor between consecutive bounds. *)

  val bound : int -> float
  (** [bound i] — upper bound of finite bucket [i]; raises
      [Invalid_argument] outside [0, buckets). *)

  val bucket_index : float -> int
  (** The bucket a value falls into: the smallest [i] with
      [v <= bound i], or [buckets] for the overflow bucket. O(1). *)

  val create : unit -> h
  val observe : h -> float -> unit

  val count : h -> int
  val sum : h -> float
  val min_value : h -> float option
  val max_value : h -> float option
  val mean : h -> float option

  (** [quantile h p] with [p] in [\[0,1\]]: nearest-rank over the buckets.
      Returns the upper bound of the bucket holding the rank, clamped into
      [\[min_value, max_value\]] (so a single-sample histogram answers
      exactly). [None] when empty. *)
  val quantile : h -> float -> float option

  (** [cumulative h] — [(bound, cumulative count)] per finite bucket, in
      bound order; the overflow count is [count h] minus the last
      cumulative value. *)
  val cumulative : h -> (float * int) list
end

(** {2 Counters} *)

val inc : t -> ?labels:labels -> string -> unit

(** A pre-resolved counter series: [counter t ?labels name] finds or
    creates the series once (the label sort, key build and hash of {!inc}),
    then [incr c] is a single field update. Resolving creates the series as
    {!declare_counter} does, so resolve a handle on first use when a series
    must not appear in exports before its first event. *)
type counter

val counter : t -> ?labels:labels -> string -> counter
val incr : counter -> unit
val add : t -> ?labels:labels -> string -> int -> unit

(** 0 if never touched. *)
val counter_value : t -> ?labels:labels -> string -> int

(** {2 Histograms in the registry} *)

(** [observe t name v] records [v] into the histogram time series
    [(name, labels)], creating it on first use. *)
val observe : t -> ?labels:labels -> string -> float -> unit

val histogram : t -> ?labels:labels -> string -> Histogram.h
val find_histogram : t -> ?labels:labels -> string -> Histogram.h option

(** {2 Pre-registration}

    Declaring an instrument creates its (zero-valued) time series so
    exporters list the family even before the first event — scrape
    consumers see a stable schema. *)

val declare_counter : t -> ?labels:labels -> string -> unit
val declare_histogram : t -> ?labels:labels -> string -> unit

(** {2 Spans}

    A span is an open interval identified by [(name, key)] — [key] is
    typically the acting node's pid, so concurrent nodes time the same
    phase independently. [span_end] observes [now -. begin_time] into the
    histogram [name] under the labels given {e at the end} (label values
    often only known at completion, e.g. an outcome).

    Mismatches are counted, never fatal: a second [span_begin] on an open
    span counts [telemetry.span_orphaned{span=name}] and restarts the
    interval; [span_end] without a matching begin counts
    [telemetry.span_unmatched{span=name}] and observes nothing. *)

val span_begin : t -> name:string -> key:int -> now:float -> unit
val span_end : ?labels:labels -> t -> name:string -> key:int -> now:float -> unit

(** Abandon an open span without observing (e.g. the phase was aborted). *)
val span_drop : t -> name:string -> key:int -> unit

(** Is the [(name, key)] span currently open? *)
val span_open : t -> name:string -> key:int -> bool

(** Number of currently open spans. *)
val open_spans : t -> int

(** {2 Export iteration}

    Snapshots sorted by [(name, labels)] — deterministic regardless of
    insertion order. *)

val counters : t -> (string * labels * int) list
val histograms : t -> (string * labels * Histogram.h) list

(** {2 Exporters}

    Both renderings are deterministic: series are emitted in the sorted
    [(name, labels)] order above and floats use fixed formats, so
    identical registries render byte-identically. *)

module Export : sig
  (** One JSON object per line: counters as
      [{"kind":"counter","name":...,"labels":{...},"value":n}], histograms
      with [count]/[sum]/[min]/[max]/[p50]/[p90]/[p99]
      and a sparse cumulative [buckets] array of [[bound, count]] pairs. *)
  val metrics_jsonl : Buffer.t -> t -> unit

  (** Prometheus text exposition format (version 0.0.4): [# TYPE]
      comments; histograms as [_bucket{le="..."}] / [_sum] / [_count].
      Metric names are sanitized ([.] and other invalid characters become
      [_], counters gain a [_total] suffix); label values are escaped. *)
  val prometheus : Buffer.t -> t -> unit

  (** [json_escape s] — [s] as the contents of a JSON string literal
      (backslash, quote, and control characters escaped). *)
  val json_escape : string -> string

  (** A JSON-valid rendering of a float: integral values as [%.1f],
      others as [%.17g], non-finite as [null]. *)
  val json_float : float -> string
end

(** {2 Reader}

    The one JSON reader of the code base: fault plans are decoded from it
    and the telemetry smoke check validates every exported line with it. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list  (** members in document order *)

  (** [parse s] reads exactly one JSON value (surrounding whitespace
      allowed). Strict RFC 8259 syntax: a value starts with a minus sign,
      a digit, a double quote, a brace, a bracket or a literal; numbers follow the JSON grammar (no
      [+], leading [.] or [nan]); strings may not hold raw control
      characters; [\u] escapes are decoded to UTF-8. [Error] carries the
      reason and the byte offset. *)
  val parse : string -> (t, string) result
end

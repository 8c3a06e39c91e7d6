(** Host-time microbenchmarks of the crypto data plane.

    Every other experiment reports modelled time; this one measures
    the host time of the simulator's hot paths: AES-CTR pages,
    SHA-256 (page, 64 KiB stream, HMAC), SHA-3 and the MEE's Keccak
    MAC, the MEE store/load round trip and its hot and cold read
    paths, Create_Enclave, the warm-pool create, the attested channel
    handshake, the RSA signature and DH exponentiation behind it, the
    record MAC and seal paths, and one fig6-style sweep. Each
    optimised path with a retained reference also gets a
    [speedup-vs-reference] ratio. One modelled figure rides along:
    the cloud driver's p99 session latency at its saturation knee.

    Every measured row is the median of single calls timed by
    {!Hypertee_obs.Clock.sample}; both sides of a ratio are sampled
    together, one call each per round, so host drift lands on both. *)

type sample = {
  target : string;  (** what was measured, e.g. ["aes-ctr-page"] *)
  metric : string;
      (** ["throughput"], ["latency"], ["speedup-vs-reference"] or
          ["p99-latency"] *)
  value : float;  (** the median call, for measured rows *)
  unit_ : string;  (** ["MB/s"], ["ns/op"], ["x"] or ["ms"] *)
  runs : int;  (** calls behind the reported value *)
  iqr : float option;
      (** interquartile range of the calls, in [unit_]; [None] for a
          ratio or a modelled row *)
}

(** The machine a benchmark file was produced on; recorded in the
    JSON so raw MB/s numbers carry their provenance. *)
type host = {
  hardware_threads : int;  (** [Domain.recommended_domain_count] *)
  ocaml_version : string;
  word_size : int;
  os_type : string;
}

val host_info : unit -> host

val run : ?quick:bool -> ?min_time_s:float -> unit -> sample list
(** Run the full suite. [quick] shortens the per-target sampling
    budget and the sweep; [min_time_s] overrides the budget directly
    (tests use a tiny value). A target always gets at least five
    calls per side. *)

val find : sample list -> target:string -> metric:string -> sample option
val print : ?out:out_channel -> sample list -> unit

val write_json : path:string -> sample list -> unit
(** Write [{"host": {...}, "samples": [...]}]: the {!host_info} block
    followed by one [{"target", "metric", "value", "unit", "runs"}]
    object per sample, with ["iqr"] after ["runs"] on measured rows. *)

(** A gated baseline row that the fresh run moved past the
    tolerance, or did not produce at all. *)
type regression = {
  r_target : string;
  r_metric : string;
  r_baseline : float;
  r_current : float option;  (** [None]: missing from the fresh run *)
}

val load_baseline : path:string -> (string * string * float) list
(** [(target, metric, value)] triples parsed from a previously
    written JSON file (current object format or the older flat
    array). *)

val compare_to_baseline :
  baseline:(string * string * float) list ->
  tolerance_pct:float ->
  sample list ->
  regression list
(** Regressions of the baseline's gated rows. A [speedup-vs-reference]
    ratio gates as a floor: both sides run on the same machine, so it
    is portable, while raw MB/s or ns/op compared against a file
    committed from different hardware would flap and is not gated. A
    modelled [p99-latency] gates as a ceiling. A gated baseline row
    missing from [samples] is a regression. *)

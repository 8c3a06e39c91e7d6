(** Execution mode reported by [Platform.exec_mode].

    Every platform runs deterministically on one domain, so
    [Platform.exec_mode] always returns [Deterministic]. The type
    stays because the session benchmark (sessionbench/bench.ml)
    matches on it to refuse any other mode, and that file must keep
    compiling unchanged. [Parallel] stays as a second constructor so
    that match's catch-all case is not reported as unused (warning
    11, an error under dune's dev profile); nothing constructs it. *)

type mode = Deterministic | Parallel of { domains : int }

val to_string : mode -> string

val env_var : string
(** ["HYPERTEE_EXEC"], named in the benchmark's refusal message. The
    variable is no longer read. *)

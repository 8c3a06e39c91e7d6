(** The host's monotonic clock, and the one sampler that times code
    on it.

    Everything else in the simulator runs on modelled time; this is
    how fast the simulator itself runs. [perf] takes every host-time
    figure through {!sample}, so each side of a speedup ratio sees the
    same stretch of a drifting host. *)

val now : unit -> int
(** Monotonic nanoseconds since an arbitrary origin. *)

val timed : (unit -> unit) -> unit -> int
(** [timed f] is a step that runs [f] once and returns the host ns it
    took. A step that must leave part of its work untimed times itself
    with {!now} instead. *)

val sample : budget_ns:int -> (unit -> int) array -> Hypertee_util.Stats.t array
(** [sample ~budget_ns steps] calls each step once as a warmup, then
    runs rounds of one call per step in array order until at least 5
    rounds have run and the ns the steps returned, summed over all
    rounds, reach [budget_ns]. Element [i] of the result holds step
    [i]'s per-call ns, warmup excluded. *)

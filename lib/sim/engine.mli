(** Discrete-event simulation engine.

    Time is in nanoseconds (float). Handlers scheduled with [at] or
    [after] run when the clock reaches their timestamp; a handler may
    schedule further events. Used by the Fig. 6 concurrent-primitive
    queueing experiment and the mailbox transport model. *)

type t

(** A fresh engine with an empty event queue at time 0. *)
val create : unit -> t

(** Current simulated time (ns). *)
val now : t -> float

(** [at t ~time f] schedules [f] at absolute [time] (>= now). *)
val at : t -> time:float -> (t -> unit) -> unit

(** [after t ~delay f] schedules [f] at [now + delay]. *)
val after : t -> delay:float -> (t -> unit) -> unit

(** Run until no events remain or [until] (if given) is passed.
    Returns the final time. An event scheduled beyond [until] stays
    queued (the clock parks at [until]); a later [run] resumes with
    it. *)
val run : ?until:float -> t -> float

(** Timestamp of the earliest pending event, if any. *)
val next_time : t -> float option

(** Number of events processed so far. *)
val processed : t -> int

(** [bind_tracer t tracer] binds the tracer's clock to this engine's
    simulated time ({!Hypertee_obs.Trace.set_clock}), so spans
    emitted while the simulation runs are stamped with event time
    rather than the tracer's virtual cursor. *)
val bind_tracer : t -> Hypertee_obs.Trace.t -> unit

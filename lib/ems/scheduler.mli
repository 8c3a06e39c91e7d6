(** EMS-side primitive scheduling (paper Fig. 3 and Sec. III-C).

    Requests arriving from the mailbox are distributed over the EMS
    worker cores and — as one of the timing-side-channel
    countermeasures — dispatched in a randomized order rather than
    arrival order, so a co-located attacker cannot line its own
    primitives up against a victim's to learn execution order or
    interleave with specific victim gadgets.

    The functional simulator executes jobs synchronously, so this
    module models the *order and placement* decisions: a batch of
    pending jobs is shuffled, dealt round-robin to workers, and run.
    Service remains at primitive granularity (a job never yields
    mid-primitive — the property Sec. III-C relies on).

    Fault model: with an injector installed, a worker can crash or
    stall mid-request. The affected job is parked (never silently
    lost) and the worker marked dead; {!watchdog_scan} — EMS's
    recovery sweep, run on every doorbell — revives dead workers and
    re-queues parked jobs under their original request ids, so the
    request/response binding is preserved across recovery. *)

type t

type watchdog_report = { dead_workers : int; redispatched : int list }

(** [create rng ~workers] builds a scheduler over [workers] EMS
    worker cores; [rng] drives the dispatch-order shuffle. [track]
    (default 0) is the trace row its instants land on — the platform
    passes the owning shard's {!Hypertee_obs.Trace.track_ems}, so
    multi-shard runs keep one scheduler timeline per shard. *)
val create : ?track:int -> Hypertee_util.Xrng.t -> workers:int -> t

(** Configured worker-core count. *)
val workers : t -> int

(** Install the platform's fault injector (consulted per job run). *)
val set_fault_injector : t -> Hypertee_faults.Fault.t -> unit

(** [submit t ?enclave ~id job] queues a primitive for execution.
    [id] is the mailbox request id (used for the audit trail and for
    watchdog re-dispatch). [enclave] is the enclave the request acts
    on: {!dispatch} keeps jobs for one enclave in submission order.
    Without it the job is ordered against no other. *)
val submit : t -> ?enclave:int -> id:int -> (unit -> unit) -> unit

(** Jobs awaiting execution, including parked in-flight jobs. *)
val pending : t -> int

(** [dispatch t] takes the whole pending batch, shuffles it across
    enclaves (each enclave's jobs keep their submission order),
    assigns jobs to the live workers round-robin and runs every job
    to completion. Returns the number of jobs executed (jobs whose
    worker crashed or stalled are parked instead). *)
val dispatch : t -> int

(** Workers currently alive (all of them unless faults struck). *)
val alive_workers : t -> int

(** [watchdog_scan t] — detect dead/stalled workers, restart them and
    re-queue their in-flight jobs for the next {!dispatch}. Returns
    what was recovered; [{ dead_workers = 0; redispatched = [] }]
    when all is well. *)
val watchdog_scan : t -> watchdog_report

(** Audit trail: (request id, worker) in execution order, most recent
    batch last. Used by the tests that check the attacker cannot
    predict ordering. *)
val execution_log : t -> (int * int) list

(** Entries currently in the log — a cheap cursor: snapshotting it
    before a batch drain and slicing {!execution_log} at it afterwards
    yields exactly that drain's execution order (how the gate exposes
    a deterministic batched drain order to the oracle). *)
val log_length : t -> int

(** Jobs run to completion since creation. *)
val executed : t -> int

(** Fault telemetry: worker crashes / stalls injected, and watchdog
    restarts performed. *)
val crashes : t -> int

(** Worker stalls injected. *)
val stalls : t -> int

(** Watchdog worker restarts performed. *)
val restarts : t -> int

(** Snapshot executed/crash/stall/restart counters and the pending
    gauge into a metrics registry, each name prefixed with [prefix]
    (e.g. ["shard0.sched."]). *)
val publish_metrics : t -> prefix:string -> Hypertee_obs.Metrics.t -> unit

(** Differential EMCall oracle.

    A reference model of the EMS state machine that replays every
    request/response pair observed at the EMCall gate (installed as
    the gate's {!Hypertee_cs.Emcall.tap} via
    [Platform.attach_oracle]) and diffs its prediction against what
    the runtime actually answered.

    The model tracks, per enclave: the lifecycle state, the believed
    heap and shared-memory cursors, the measurement status and the
    set of attached regions; per shared region: owner, size, the
    legal connection list and the active attachments; per secure
    channel: listener, initiator endpoint and accept state (queue
    depth is deliberately untracked). Predictions
    follow each handler's check order exactly (existence → identity
    → argument sanity → state), so the model predicts not just
    success/failure but {e which} error.

    Soundness under partial knowledge: the oracle never reports a
    divergence it cannot prove.

    - Resource errors ([Out_of_memory], [Out_of_key_ids]) are always
      accepted — the model does not track pool depth or KeyID
      pressure.
    - A gate [Timeout] leaves the EMS-side effect unknowable: the
      named enclave drops to an [Unknown] state whose transitions
      are adopted from later observed responses rather than
      predicted ([Ok_entered] proves Running, and so on).
    - Results collected from a batch doorbell ([batched = true]) are
      executed in scheduler-randomized order, but the gate recovers
      the realized drain order from the scheduler log
      ({!Hypertee_cs.Emcall.set_drain_order_probe}) and fires batched
      taps in that order — so batched results are predicted exactly
      like serial ones.
    - [Integrity_failure] responses are accepted anywhere a fault
      injector may strike, and the model mirrors the containment:
      the victim enclave is terminated.

    Everything else is checked strictly — including that freshly
    minted enclave and region ids are ones the platform never issued
    before (the id-uniqueness half of exactly-once delivery). *)

type divergence = {
  index : int;  (** 1-based observation count at which it occurred *)
  opcode : Hypertee_ems.Types.opcode;
  expected : string;
  observed : string;
}

type t

(** [create ~shards ()] — [shards] (default 1) is the platform's EMS
    shard count: shard state is disjoint, so cross-shard references
    (a grantee or region from another id residue class) are predicted
    to fail exactly as the owning shard would report. *)
val create : ?shards:int -> unit -> t

(** Feed one completed invocation. Signature-compatible with the
    gate's tap (see {!tap}). *)
val observe :
  t ->
  caller:Hypertee_cs.Emcall.caller ->
  batched:bool ->
  Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response * float, Hypertee_cs.Emcall.rejection) result ->
  unit

(** The observer packaged for {!Hypertee_cs.Emcall.set_tap}. *)
val tap : t -> Hypertee_cs.Emcall.tap

(** [note_migration t ~enclave ~shard] — the platform restored or
    migrated [enclave] onto [shard] outside the gate (checkpoint
    restore, migration commit). The model routes the id there from
    now on and adopts its lifecycle from later observed responses.
    Shared regions stay on the shard that minted them: those the
    enclave owns there with nobody attached are reaped, as the
    source copy's destroy reaps them on the platform. *)
val note_migration : t -> enclave:int -> shard:int -> unit

(** [note_recovery t ~shard] — the platform cold-restarted [shard].
    Channel ops are not journaled (docs/PROTOCOL.md §2.3), so the
    recovery reaped every secure channel homed on that shard; the
    model mirrors the reap by dropping the shard's chan-id residue
    class. Enclaves and regions replay from the journal and need no
    adjustment. *)
val note_recovery : t -> shard:int -> unit

(** Invocations observed so far. *)
val observed : t -> int

(** Observations whose outcome matched the prediction. *)
val agreements : t -> int

(** Total divergences recorded (only the first few are retained in
    {!divergences}). *)
val divergence_count : t -> int

(** The retained divergences, oldest first (capped). *)
val divergences : t -> divergence list

val pp_divergence : Format.formatter -> divergence -> unit

(** One-line summary: observed / agreed / diverged. *)
val summary : t -> string

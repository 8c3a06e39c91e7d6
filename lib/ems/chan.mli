(** Platform-shared secure-channel fabric (docs/PROTOCOL.md §2).

    The control-plane state behind the five [ECH*] primitives: one
    table of channel control blocks — endpoints, the 16-byte binding
    secret, and a bounded segment queue per direction — shared by
    by every EMS shard, so a channel's two endpoints can
    live on different shards and the fabric is the cross-shard
    transport. Channel ids follow the same residue discipline as
    enclave ids (shard [s] mints [s+1], [s+1+N], …), so
    [(chan-1) mod N] names the home shard and the EMCall gate routes
    data-plane requests arithmetically.

    Channels are deliberately {e ephemeral} control state: they are
    excluded from the shard journal (a recovered shard cannot replay
    session traffic it never recorded), and {!drop_home} /
    {!drop_for_enclave} reap every channel a crash or EDESTROY
    orphans — the invariant checker's "chan-orphan" rule holds the
    fabric to that.

    The fault injector hooks the queue-push path ([Chan_corrupt],
    [Chan_truncate], [Chan_reorder]); the record layer above must
    convert each into a detected failure (fail closed). *)

(** A channel endpoint: the un-attested host side of the EMCall
    gate, or an enclave. *)
type endpoint = Host | Enclave of Types.enclave_id

(** Map a primitive's sender identity to an endpoint. *)
val endpoint_of_sender : Types.enclave_id option -> endpoint

type t

(** Per-direction queued-segment cap; a full queue refuses sends. *)
val queue_cap : int

(** [create ~shards] — an empty fabric for an [shards]-way platform.
    @raise Invalid_argument if [shards < 1]. *)
val create : shards:int -> t

(** Install (or remove) the fault injector consulted on every queue
    push. *)
val set_injector : t -> Hypertee_faults.Fault.t option -> unit

(** The home shard encoded in a channel id: [(chan-1) mod shards]. *)
val home_of : t -> int -> int

(** [open_ t ~shard ~listener ~initiator ~binding_of] mints a channel
    homed on [shard], derives its binding via [binding_of chan]
    (Keymgmt) and returns [(chan, binding)]. *)
val open_ :
  t ->
  shard:int ->
  listener:Types.enclave_id ->
  initiator:endpoint ->
  binding_of:(int -> bytes) ->
  int * bytes

(** [accept t ~chan ~enclave] — the listening enclave claims the
    pending channel and learns the binding. Rejected when [enclave]
    is not the listener or the channel was already accepted. *)
val accept : t -> chan:int -> enclave:Types.enclave_id -> (bytes, Types.error) result

(** [send t ~chan ~sender ~seg] queues one 1–1024-byte segment toward
    the peer; refused when [sender] is not an endpoint or the queue
    is full. Fault-injection sites fire here. *)
val send : t -> chan:int -> sender:endpoint -> seg:bytes -> (unit, Types.error) result

(** [recv t ~chan ~sender] dequeues the oldest segment addressed to
    [sender], or [None] when the peer has queued nothing. *)
val recv : t -> chan:int -> sender:endpoint -> (bytes option, Types.error) result

(** [close t ~chan ~sender] wipes the binding, drops queued segments
    and removes the entry. Either endpoint may close. *)
val close : t -> chan:int -> sender:endpoint -> (unit, Types.error) result

(** Reap every channel that names enclave [id] as an endpoint
    (EDESTROY, integrity containment). Returns how many died. *)
val drop_for_enclave : t -> Types.enclave_id -> int

(** Reap every channel homed on [home] (shard crash recovery).
    Returns how many died. *)
val drop_home : t -> home:int -> int

(** Read-only view of one control block, for the invariant checker. *)
type view = {
  v_chan : int;
  v_home : int;
  v_listener : Types.enclave_id;
  v_initiator : endpoint;
  v_accepted : bool;
  v_queued : int;
  v_binding_live : bool;
      (** the binding secret is not all-zero — a live entry whose
          binding was wiped (or never derived) is a fabric bug *)
}

(** All live control blocks, sorted by channel id. *)
val snapshot : t -> view list

(** Live channel count. *)
val live : t -> int

(** The shard count the fabric was created for. *)
val shards : t -> int

(** Counters under [chan.*]. *)
val publish_metrics : t -> Hypertee_obs.Metrics.t -> unit

(** An enclave execution session — the environment an enclave's code
    sees while running on a CS core.

    Obtained from [Sdk.enter]. Provides virtual-address reads/writes
    routed through the enclave's private page table and the
    memory-encryption engine (enclave mode, no bitmap check), plus
    the user-privilege primitives an enclave may invoke through
    EMCall: EALLOC/EFREE, the ESHM* family, EATTEST and EEXIT. The
    enclave identity on every primitive is stamped by EMCall from
    hardware state; code using this module cannot impersonate another
    enclave. *)

type t

val enclave_id : t -> Hypertee_ems.Types.enclave_id
val platform : t -> Platform.t

(** Virtual-address byte access within the enclave. Faults on
    unmapped pages are routed to EMS like hardware would
    (demand-allocation / swap-in); remaining faults raise
    [Failure]. *)
val read : t -> va:int -> len:int -> bytes

val write : t -> va:int -> bytes -> unit

(** Convenience 64-bit accessors (little-endian). *)
val read_u64 : t -> va:int -> int64

val write_u64 : t -> va:int -> int64 -> unit

(** Virtual addresses of the enclave's regions. *)
val heap_va : t -> int

val staging_va : t -> int
val stack_va : t -> int

(** User primitives (Table II, Priv. = User). *)
val alloc : t -> pages:int -> (int (* base va *), Hypertee_ems.Types.error) result

(** Like {!alloc}, also returning the modelled EMCall round-trip
    time in ns (per-call, race-free — the way to time primitives
    from a session). *)
val alloc_timed :
  t -> pages:int -> (int (* base va *) * float, Hypertee_ems.Types.error) result

val free : t -> va:int -> pages:int -> (unit, Hypertee_ems.Types.error) result

val shmget :
  t -> pages:int -> max_perm:Hypertee_ems.Types.perm ->
  (Hypertee_ems.Types.shm_id, Hypertee_ems.Types.error) result

val shmshr :
  t ->
  shm:Hypertee_ems.Types.shm_id ->
  grantee:Hypertee_ems.Types.enclave_id ->
  perm:Hypertee_ems.Types.perm ->
  (unit, Hypertee_ems.Types.error) result

val shmat :
  t ->
  shm:Hypertee_ems.Types.shm_id ->
  perm:Hypertee_ems.Types.perm ->
  (int (* base va *), Hypertee_ems.Types.error) result

val shmdt : t -> shm:Hypertee_ems.Types.shm_id -> (unit, Hypertee_ems.Types.error) result
val shmdes : t -> shm:Hypertee_ems.Types.shm_id -> (unit, Hypertee_ems.Types.error) result

(** [attest t ~user_data] — EATTEST quote bytes. *)
val attest : t -> user_data:bytes -> (bytes, Hypertee_ems.Types.error) result

(** EEXIT: leave the enclave; the session becomes unusable. *)
val exit : t -> (unit, Hypertee_ems.Types.error) result

(** Internal constructor used by [Sdk]. *)
val make : Platform.t -> enclave:Hypertee_ems.Enclave.t -> t

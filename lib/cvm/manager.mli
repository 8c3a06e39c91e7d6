(** VM-level TEE extension (paper Sec. IX, "Support for VM-level
    TEEs").

    The paper argues HyperTEE naturally extends from application
    enclaves to confidential VMs: EMS performs CVM memory management,
    isolation and encryption; snapshots are protected by AES
    encryption plus a Merkle tree whose root hash and key live in EMS
    private memory; migration runs remote attestation between the
    source and destination platforms, moves the key material over the
    resulting encrypted channel, and ships only ciphertext.

    This module implements exactly that on top of the platform: CVM
    control structures are EMS state, guest frames come from the
    enclave memory pool (bitmap-marked, so the untrusted hypervisor
    cannot touch them), and each CVM gets its own memory-encryption
    KeyID. *)

type cvm_id = int

type state = Running | Suspended | Destroyed

type t
(** One platform's CVM manager (lives on that platform's EMS). *)

val create : Hypertee.Platform.t -> t

val platform : t -> Hypertee.Platform.t

(** [launch t ~vcpus ~memory_pages ~image] creates a CVM, pulls
    [memory_pages] frames from the EMS pool, programs a dedicated
    memory key, loads [image] into guest-physical page 0 onward and
    measures it. *)
val launch :
  t -> vcpus:int -> memory_pages:int -> image:bytes -> (cvm_id, string) result

val state : t -> cvm_id -> state option
val measurement : t -> cvm_id -> bytes option
val memory_pages : t -> cvm_id -> int

(** Guest-physical memory access (through the encryption engine, as a
    vCPU would see it). [gpa] is a byte address. *)
val guest_read : t -> cvm_id -> gpa:int -> len:int -> (bytes, string) result

val guest_write : t -> cvm_id -> gpa:int -> bytes -> (unit, string) result

val suspend : t -> cvm_id -> (unit, string) result
val resume : t -> cvm_id -> (unit, string) result

(** [destroy t id] scrubs and returns every frame to the pool and
    revokes the KeyID. *)
val destroy : t -> cvm_id -> (unit, string) result

(** A snapshot as it leaves the platform: encrypted pages only. The
    AES snapshot key and the Merkle root remain in EMS ([t]) — the
    untrusted host storing this blob learns nothing and cannot
    tamper undetected. *)
type snapshot = { cvm : cvm_id; encrypted_pages : bytes array; vcpus : int }

(** [snapshot t id] — suspend-and-copy. The CVM keeps running state
    and can be snapshotted repeatedly. *)
val snapshot : t -> cvm_id -> (snapshot, string) result

(** [restore t snap] — rebuilds a CVM from [snap] on the same
    platform, verifying every page against the retained Merkle root.
    A tampered page is reported and nothing is restored. *)
val restore : t -> snapshot -> (cvm_id, string) result

(** [migrate ~src ~dst ~rng id] — full migration flow: a mutually
    attested htch1 handshake between the two EMSes (each quotes the
    CVM's measurement and pins the peer's quote to it; binding and
    handshake randomness come from [rng]), key + root-hash transfer
    as one sealed record, encrypted page transfer, verified restore
    on [dst], source destroyed. Returns the CVM's id on the
    destination. *)
val migrate :
  src:t -> dst:t -> rng:Hypertee_util.Xrng.t -> cvm_id -> (cvm_id, string) result

(** Telemetry: snapshots taken / restores verified / verification
    failures (tamper attempts). *)
val tamper_detections : t -> int

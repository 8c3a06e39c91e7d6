(** Enclave control structure (ECS) and life-cycle state machine.

    Lives in EMS private memory; CS software never sees it. Tracks
    the enclave's state, private page table, measurement, KeyID,
    virtual-address layout, and attachments. State machine:

    {v
      ECREATE -> Loading --EADD*--> Loading --EMEAS--> Measured
      Measured --EENTER--> Running --EEXIT--> Measured
      Running --interrupt--> Interrupted --ERESUME--> Running
      Measured --ERETIRE--> Parked --EWARM--> Measured
      any --EDESTROY--> Destroyed
    v}

    [Parked] is the warm-pool state: the enclave keeps its id, KeyID,
    pages and measurement, but is invisible to every primitive except
    EWARM (which revives it) and EDESTROY (which evicts it). *)

type state = Loading | Measured | Running | Interrupted | Parked | Destroyed

(** Virtual-address layout of an enclave (page numbers). Code starts
    at [code_base]; heap grows up from [heap_base]; the EALLOC cursor
    tracks dynamic growth; shared-memory windows are placed from
    [shm_base] upward. *)
type layout = {
  code_base : int;
  data_base : int;
  heap_base : int;
  stack_base : int;
  staging_base : int;  (** HostApp <-> enclave staging window *)
  shm_base : int;
}

type t = {
  id : Types.enclave_id;
  config : Types.enclave_config;
  layout : layout;
  page_table : Hypertee_arch.Page_table.t;
  mutable key_id : int;
      (** memory-encryption KeyID; reassigned if the key is parked
          and later revived (Sec. IV-C KeyID exhaustion) *)
  mutable key_parked : bool;
      (** the KeyID was released under pressure; private pages sit
          re-encrypted under the EMS swap key until revival *)
  mutable state : state;
  mutable measurement_ctx : Hypertee_crypto.Sha256.ctx option;
      (** open while Loading; consumed by EMEAS *)
  mutable measurement : bytes option;  (** set by EMEAS *)
  mutable heap_cursor : int;  (** next free heap vpn *)
  mutable shm_cursor : int;  (** next free shm-window vpn *)
  mutable attached_shms : (Types.shm_id * int) list;  (** shm -> base vpn *)
  mutable saved_pc : int;  (** context saved on interrupt *)
  mutable swapped_out : (int, bytes) Hashtbl.t;
      (** vpn -> encrypted blob for pages EWB evicted *)
  mutable staging_frames : int list;
      (** HostApp-owned frames mapped into the staging window
          (plaintext, KeyID 0, host-visible — Sec. IV-A data
          movement) *)
  mutable added_pages : (int * bool) list;
      (** EADD history, newest first, (vpn, executable): ERETIRE
          replays it in issue order (reversed) to re-derive the
          measurement from the resident pages before parking *)
}

(** Human-readable state label for reports and errors. *)
val state_name : state -> string

(** The virtual-address layout a given config produces. Exposed so
    external models (the differential oracle) can predict cursor
    positions without duplicating the address arithmetic. *)
val make_layout : Types.enclave_config -> layout

(** [create ~id ~config ~page_table ~key_id] a fresh ECS in Loading
    state with an open measurement context. *)
val create :
  id:Types.enclave_id ->
  config:Types.enclave_config ->
  page_table:Hypertee_arch.Page_table.t ->
  key_id:int ->
  t

(** Legal-transition checks; [Error] carries the offending state. *)
val can_add : t -> (unit, Types.error) result

(** EMEAS is legal only while still Loading. *)
val can_measure : t -> (unit, Types.error) result

(** EENTER requires a Measured (built, not yet entered) enclave. *)
val can_enter : t -> (unit, Types.error) result

(** ERESUME requires an Interrupted enclave. *)
val can_resume : t -> (unit, Types.error) result

(** EEXIT requires a Running or Interrupted enclave. *)
val can_exit : t -> (unit, Types.error) result

(** ERETIRE requires a Measured (idle) enclave. *)
val can_retire : t -> (unit, Types.error) result

(** Virtual page ranges, derived from config + layout. *)
val static_vpns : t -> int list

(** The finalized measurement.
    @raise Invalid_argument before EMEAS ran. *)
val measurement_exn : t -> bytes

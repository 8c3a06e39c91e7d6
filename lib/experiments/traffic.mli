(** Plausible enclave-management traffic: the one workload model
    behind the chaos sweep, the rolling restart, the differential
    oracle replay, the interleaving explorer and [hypertee metrics].

    The model keeps a loose view of the fleet it launched — each
    enclave's lifecycle phase, its EALLOC regions, the shared regions
    it created, was granted and attached — purely so that {!next}
    keeps issuing requests that are valid against the state it
    believes in: the full lifecycle (ECREATE/EADD/EMEAS/EENTER/
    interrupt/ERESUME/EEXIT/EDESTROY), dynamic memory (EALLOC/EFREE/
    page faults), writebacks (including a 48-page one that drains the
    EMS pool and forces enclave heap pages through the encryption
    engine, where injected DRAM bit flips land), attestation, and the
    whole shared-memory cycle (ESHMGET/ESHMSHR/ESHMAT/ESHMDT/ESHMDES).
    Judging the platform's answers is not this module's job; on an
    error or a timeout {!absorb} drops whatever it no longer trusts.
    Deterministic given the generator's RNG. *)

type t

(** A fresh, empty fleet drawing its decisions from [rng]. *)
val create : Hypertee_util.Xrng.t -> t

(** Live enclave ids the model believes in, newest first. *)
val enclaves : t -> Hypertee_ems.Types.enclave_id list

(** The next plausible request and the caller that issues it:
    finish launching any loading enclave, top the fleet up to its
    target size, then steady-state traffic on a random member. *)
val next : t -> Hypertee_cs.Emcall.caller * Hypertee_ems.Types.request

(** [absorb t (caller, request) result] folds one observed outcome
    back into the model. Any request may be absorbed, including ones
    {!next} did not issue. An ESHMSHR answered [No_such_enclave]
    forgets nobody: the missing enclave may be the grantee. *)
val absorb :
  t ->
  Hypertee_cs.Emcall.caller * Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response * float, Hypertee_cs.Emcall.rejection) result ->
  unit

(** [issue t platform] sends {!next} through the gate
    ({!Hypertee.Platform.invoke_timed}), {!absorb}s the result and
    returns the request with it. *)
val issue :
  t ->
  Hypertee.Platform.t ->
  Hypertee_ems.Types.request
  * (Hypertee_ems.Types.response * float, Hypertee_cs.Emcall.rejection) result

(** Correctness-verification experiment: the differential oracle and
    the invariant checker pointed at a live platform.

    [oracle_replay] drives a seeded management workload — {!Traffic}'s
    plausible traffic (the full lifecycle, dynamic memory, writebacks,
    attestation, the whole shared-memory cycle), batched doorbells,
    and, interleaved with it, deliberate abuse (cross-privilege calls,
    forged senders, bogus arguments, unknown ids) — with an oracle
    shadowing the gate, then sweeps the invariants. [scenario_driver]
    adapts the same workload to the interleaving explorer. [run] is
    the [hypertee check] entry point. *)

type outcome = {
  calls : int;  (** EMCalls the oracle observed *)
  agreements : int;
  divergence_count : int;
  divergences : Hypertee_check.Oracle.divergence list;  (** retained sample *)
  report : Hypertee_check.Invariant.report;  (** end-of-run invariant sweep *)
}

(** Drive [calls] EMCalls (default 1200) under an attached oracle.
    [fault_rate] > 0 arms a uniform fault plan (default 0.0);
    [shards] (default 2) and [seed] shape the platform. *)
val oracle_replay :
  ?calls:int -> ?fault_rate:float -> ?shards:int -> ?seed:int64 -> ?deep:bool -> unit -> outcome

(** Explorer adapter: build a platform shaped by the scenario, run
    its op budget under the oracle, sweep invariants; any divergence
    or violation is a [Fail] carrying the reason. *)
val scenario_driver :
  Hypertee_check.Explorer.scenario -> Hypertee_check.Explorer.verdict

(** Run [n] explorer seeds (default 24) through {!scenario_driver}. *)
val explore :
  ?n:int ->
  unit ->
  (int64 * Hypertee_check.Explorer.scenario * string) list

(** Full verification pass for the CLI: a clean oracle replay, a
    fault-injected replay, and an explorer sweep. Prints a summary to
    [out]; returns [true] iff everything held. *)
val run : ?deep:bool -> ?calls:int -> ?seeds:int -> ?out:out_channel -> unit -> bool

(* The execution-mode type. Every platform runs deterministically on
   one domain; this module survives only as the vocabulary callers
   use to check that (see exec.mli). *)

type mode = Deterministic | Parallel of { domains : int }

let to_string = function
  | Deterministic -> "deterministic"
  | Parallel { domains } -> Printf.sprintf "parallel:%d" domains

let env_var = "HYPERTEE_EXEC"

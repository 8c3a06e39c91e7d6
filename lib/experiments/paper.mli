(** The paper's evaluation (Sec. VII): one renderer per table and
    figure, each printing the reproduced rows to stdout next to the
    paper's numbers. Every renderer is deterministic. *)

(** [targets] — [(name, run)] for [table1]–[table6], [fig6]–[fig12]
    (with [fig8a] and [fig8b]) and [ablations], in the order the full
    sweep prints them. *)
val targets : (string * (unit -> unit)) list

(** Shared validation for command-line flags.

    The cmdliner driver ([bin/colring.ml]) and the bench runner both
    parse numeric flags; these helpers give them one set of rules and
    one error shape ([Error "<flag> <value>: <reason>"]), so a bad
    [-j], [-n] or [--max-deliveries] is rejected up front instead of
    surfacing as a backtrace from whatever constructor first chokes on
    it. *)

val positive : flag:string -> int -> (int, string) result
(** [>= 1] — worker counts, delivery budgets, cadences. *)

val non_negative : flag:string -> int -> (int, string) result
(** [>= 0] — latencies, jitters, anything where zero means "off". *)

val ring_size : flag:string -> int -> (int, string) result
(** [>= 2] — a ring needs two nodes for its links to exist. *)

val jobs : flag:string -> int option -> (int, string) result
(** [None] resolves to {!Colring_runtime.Pool.default_jobs};
    [Some v] must be positive. *)

type scheduler = {
  name : string;  (** As given on the command line. *)
  make : seed:int -> Colring_engine.Scheduler.t;
      (** A fresh scheduler; [seed] drives [random] and is ignored by
          the deterministic ones. *)
}
(** A validated [--scheduler] choice. *)

val scheduler_names : string list
(** The accepted names: random, fifo, global-fifo, lifo, round-robin,
    bias-cw, bias-ccw. *)

val scheduler : flag:string -> string -> (scheduler, string) result
(** Resolve a scheduler name; an unknown one is
    [Error "<flag> <name>: unknown scheduler (expected one of ...)"]. *)

val exit_or : cmd:string -> ('a, string) result -> 'a
(** Unwrap, or print ["<cmd>: <msg>"] to stderr and [exit 2] — the
    conventional usage-error exit for both entry points. *)

(** The benchmark's end-to-end metric names and its result line. *)

val end_to_end : (string * string) list
(** Every end-to-end metric name with its unit, in report order.  The
    median latency is printed but not among them: elect-fifo's op times
    cluster at two host-speed levels, and a run's median lands on
    whichever held most of the run, so across runs it spread about twice
    as far as [ops_per_s] and the p90. *)

val metric : float -> string -> Bench_io.t
(** [{"value": v, "unit": u}]. *)

val result_line : attempted:int -> failed:int -> (string * Bench_io.t) list -> string
(** The run's last stdout line:
    [{"correct", "attempted", "failed", "metrics"}], [correct] being
    [failed = 0]. *)

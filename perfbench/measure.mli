(** Clocks, host speed, percentiles, self time and memory for the
    benchmark.

    Every time is an integer count of nanoseconds; conversion to the
    reported unit happens once, at the end of a run. *)

val now_ns : unit -> int
(** Monotonic clock (CLOCK_MONOTONIC via bechamel), in nanoseconds.
    Allocation-free in native code. *)

val cpu_ns : unit -> int
(** CPU time of the calling domain's thread (CLOCK_THREAD_CPUTIME_ID),
    in nanoseconds.  On a guest with paravirtual steal accounting,
    time the hypervisor ran other guests instead is not counted. *)

(** {2 Host speed}

    A fixed probe computation in the benchmark's own code (an argmin
    scan over 256 ints, a random walk over 256 KiB, then 60k words of
    short-lived allocation that fit in the emptied minor heap), timed
    on the CPU clock.  It calls no colring code and triggers no
    collection, so a change to the program cannot change its time;
    only the host's speed can. *)

type host
(** The probe times taken so far. *)

val host : unit -> host
(** A tracker primed with two probes. *)

val probe : host -> unit
(** Run the probe once and keep its time. *)

val mark : host -> int
(** How many probes have run: take it when a timing starts. *)

val slowdown : host -> int -> float
(** [slowdown h mark] is how much slower than reference speed the host
    ran around a timing that started at [mark]: the median of the two
    probes before it and the two after it (fewer at either end), over
    the probe's time at reference speed (about its median on the 2-vCPU
    Xeon VM, 2.0 GHz, the benchmark was tuned on).  Probe at least twice
    after the last timing. *)

(** {2 Statistics} *)

type tail = {
  value : float;  (** The percentile itself (nearest-rank). *)
  samples : int;  (** How many samples it was taken over. *)
  beyond : int;  (** How many samples are strictly greater than [value]. *)
}

val tail : float array -> pct:int -> tail
(** [tail xs ~pct] is the nearest-rank [pct]-th percentile of [xs]:
    the smallest sample with at least [pct]% of the samples at or
    below it.  [Invalid_argument] on an empty array or a [pct] outside
    [\[1, 100\]]. *)

val min_beyond : int
(** A tail percentile is only reported with at least this many samples
    beyond it (10). *)

val reportable : tail -> bool
(** [beyond >= min_beyond]. *)

val median : float array -> float
(** [(tail xs ~pct:50).value]. *)

val self_time : start:int -> stop:int -> (int * int) list -> int
(** [self_time ~start ~stop children] is the span's duration minus the
    children's durations.  Spans are entered and left in sequence on
    one domain, so children lie inside their parent and never
    overlap. *)

val peak_rss_mb : unit -> float
(** The process's peak resident set size (VmHWM of /proc/self/status),
    in MiB.  [Failure] when the kernel does not report it. *)

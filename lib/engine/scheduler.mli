(** Asynchronous adversaries.

    In the fully-defective model the only power the network has is the
    choice of which in-flight pulse gets delivered next (delays are
    arbitrary but finite, channels never drop, duplicate or reorder
    pulses).  A scheduler realizes one such choice policy.  Algorithms
    must be correct under *every* scheduler; the test-suite runs each
    algorithm against all of them, including seeded random ones.

    A scheduler sees a {!view} of the in-flight state — which directed
    links are non-empty, the age of each link's oldest pulse — and
    returns the link to deliver from.  It never sees pulse contents
    (there are none) nor node states.

    The view is a single mutable record the simulator refreshes in
    place before every pick, so the steady-state hot path allocates
    nothing.  Schedulers must treat it as read-only and must not retain
    it across picks. *)

type view = {
  nonempty : int array;
      (** Scratch buffer owned by the simulator.  The first {!count}
          entries are the link ids with pulses in flight, in
          unspecified (but deterministic) order; entries beyond
          [count] are garbage.  Do not mutate. *)
  mutable count : int;  (** Number of valid entries in {!nonempty}. *)
  head_seq : int -> int;
      (** Global send-sequence number of a link's oldest pulse. *)
  head_batch : int -> int;
      (** Send batch (one per node activation) of a link's oldest
          pulse; pulses of one batch were sent "at the same time". *)
  travels_cw : int -> bool option;
      (** Ground-truth direction of a link, for topologies that define
          one ([Some] on rings).  General graphs report [None];
          direction-biased schedulers then treat every link as
          non-preferred and degrade to their FIFO tie-break. *)
  dst_node : int -> int;  (** Receiving node of a link. *)
  mutable step : int;  (** Deliveries performed so far. *)
  heads : Head_index.t;
      (** Index of the non-empty links by head age, read by {!fifo},
          {!global_fifo} and {!bias_direction}.  The first such pick
          activates it from {!nonempty}; from then on the view's
          owner keeps it current by calling {!Head_index.set} /
          {!Head_index.remove} on every change of a link's head (a
          delivery, a send onto an empty link, and undo's re-file and
          retraction).  The engines ({!Network}, [Gnetwork], each
          {!Flock} slot) do this themselves.  Whoever hand-builds a
          view and picks from it more than once with one of these
          schedulers must do the same, or {!Head_index.deactivate} it
          after changing the view so the next pick rebuilds it. *)
}

type t = { name : string; pick : view -> int }
(** {b Cost per pick}, for k non-empty links: {!fifo}, {!global_fifo}
    and {!bias_direction} read the view's head index, O(1) per pick
    plus O(log k) per head change ({!Head_index}); {!random} is O(1);
    {!of_schedule} checks each replayed link in O(k); {!lifo},
    {!round_robin}, {!starve_node}, {!hog_node} and {!starve_link}
    scan every non-empty link, O(k). *)

val fifo : t
(** Definition 21's scheduler: oldest pulse first, batch ties broken in
    favour of clockwise pulses. *)

val global_fifo : t
(** Strict global send order (sequence numbers only). *)

val lifo : t
(** Always delivers the link whose oldest pulse is youngest; an
    aggressive reordering adversary. *)

val round_robin : unit -> t
(** Rotates over link ids with an in-place modular cursor: the smallest
    non-empty link at or after the cursor is picked, wrapping to the
    smallest non-empty link when none remains.  Stateful, create one
    per run. *)

val random : Colring_stats.Rng.t -> t
(** Uniform choice among non-empty links. *)

val bias_direction : cw:bool -> t
(** Prefers delivering pulses travelling in the given ground-truth
    direction; falls back to FIFO among the preferred class.  With
    [~cw:false] this starves the clockwise instance, stressing
    Algorithm 2's requirement that the counterclockwise instance lag. *)

val starve_node : node:int -> t
(** Withholds deliveries to [node] for as long as any other delivery is
    possible. *)

val hog_node : node:int -> t
(** Delivers to [node] whenever possible. *)

val starve_link : link:int -> t
(** Withholds one directed link as long as possible — the
    slow-channel adversary. *)

val of_schedule : ?name:string -> ?after:t -> int array -> t
(** [of_schedule schedule] replays an explicit link sequence: the k-th
    pick returns [schedule.(k)], raising [Invalid_argument] if that
    link holds no message at that point (the schedule does not fit the
    run).  Once the schedule is exhausted, picks delegate to [after]
    (default {!fifo}).  This is how the model checker's recorded
    choice sequences — in particular minimized counterexamples — are
    replayed through the ordinary {!Colring_engine.Network.run} loop,
    and how {!Transport} backends replay a real-network delivery trace
    on the simulator.  [name] overrides the scheduler's display name
    (the default spells out the schedule length and fallback) — replay
    journals use it to carry the originating backend's name, so a
    replayed run's [run_start] record is byte-identical to the
    original's.  Stateful (an internal cursor): create one per run. *)

module Scan : sig
  val fifo : t
  val global_fifo : t
  val bias_direction : cw:bool -> t
end
(** The O(k) argmin-scan versions of the indexed schedulers, with the
    same names.  They pick the same link as their indexed counterparts
    on every view, and are kept as the oracle the tests compare them
    against. *)

val all_deterministic : unit -> t list
(** Fresh instances of every deterministic scheduler above (node- and
    link-specific ones instantiated for node 0 / link 0). *)

val pp : Format.formatter -> t -> unit

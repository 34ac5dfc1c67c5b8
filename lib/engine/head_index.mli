(** An index of link heads for the FIFO-family schedulers.

    {!Scheduler.fifo}, {!Scheduler.global_fifo} and
    {!Scheduler.bias_direction} all pick the non-empty link whose head
    pulse is oldest, possibly within a direction class first.  Scanning
    every non-empty link per pick costs O(k) for k non-empty links; this
    index keeps the links in three binary min-heaps instead — cw, ccw,
    and links without a defined direction — each keyed by the link's
    head sequence number, so a pick reads at most three heap tops and a
    head change costs O(log k).

    {b Exactness.}  Send sequence numbers and batches are stamped in
    non-decreasing send order (also by injection and by undo's
    restore), so within one class the head with the smallest sequence
    number also has the smallest (batch, sequence) pair: the picks below
    equal the lexicographic argmin of the scan they replace.

    {b Ownership.}  The index belongs to a {!Scheduler.view}; the
    engine that owns the view calls {!set} / {!remove} (or {!refresh})
    on every change of a link's head while {!t.active} holds.  It
    starts inactive and is activated by the first indexed pick
    ({!activate}, from the view's non-empty buffer), so engines driven
    by other schedulers pay one [bool] field read per head change. *)

type t = private {
  links : int;  (** Link ids are [0 .. links - 1]. *)
  mutable active : bool;
      (** Whether the heaps are live.  Engines test this field
          directly, before computing a head's stamps, so the inactive
          path is a single load. *)
  (* Storage, read by the picks; opaque to callers. *)
  mutable meta : int array;
  mutable heap : int array;
  size : int array;
}

val create : links:int -> t
(** An inactive index over [links] link ids.  Storage is allocated on
    the first {!activate}. *)

val activate :
  t ->
  nonempty:int array ->
  count:int ->
  head_seq:(int -> int) ->
  head_batch:(int -> int) ->
  travels_cw:(int -> bool option) ->
  unit
(** (Re)build the heaps from the first [count] links of [nonempty] and
    mark the index active.  [travels_cw] is read once per link id to
    fix its class.  O(links + count log count); raises
    [Invalid_argument] on a link id outside [0 .. links - 1]. *)

val deactivate : t -> unit
(** Drop the heaps; the next indexed pick rebuilds them.  For an owner
    that resets its channels wholesale (a reloaded {!Flock} slot). *)

val set : t -> int -> seq:int -> batch:int -> unit
(** [set t link ~seq ~batch]: [link] is non-empty and its head pulse
    carries these stamps.  Inserts the link or moves it within its
    heap; a no-op when [seq] is already its key.  Call only while
    [t.active]. *)

val remove : t -> int -> unit
(** [link] became empty.  A no-op when it is in no heap.  Call only
    while [t.active]. *)

val refresh : t -> int -> 'm Envq.t -> unit
(** [refresh t link q]: {!set} or {!remove} [link] from the head of
    its channel [q], for engines whose channels are {!Envq}s.  Call
    only while [t.active]. *)

(** {2 Picks}

    Each returns a link id, or -1 when every heap is empty.  Call only
    while [t.active]. *)

val fifo : t -> int
(** Lowest head batch; cw wins batch ties, then lowest sequence. *)

val global_fifo : t -> int
(** Lowest head sequence number. *)

val bias : t -> cw:bool -> int
(** Lowest head sequence among links travelling in direction [cw];
    when there are none, lowest head sequence among the rest. *)

val size : t -> int
(** Number of indexed links; equals the view's [count] while the index
    is kept current. *)

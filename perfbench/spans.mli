(** In-memory spans for the traced run, written out when the run ends.

    A span is one timed interval at a layer boundary: its name, start,
    stop, the span that caused it, and the op it belongs to (the
    identifier every span of one op shares).  Calls too frequent for a
    span each — up to ~1M scheduler picks per op — are summed into
    {!counter}s and attached to the innermost span enclosing them. *)

type counter = {
  c_name : string;
  mutable ns : int;  (** Summed duration of the calls. *)
  mutable calls : int;
  mutable sum : int;  (** A summed per-call quantity (e.g. links seen). *)
}

val counter : string -> counter

type span = {
  id : int;
  parent : span option;  (** [None] for a root span. *)
  op : int;
  name : string;
  start : int;
  mutable stop : int;
  mutable kids : (int * int) list;  (** Child intervals. *)
  mutable counters : counter list;
}

type t

val create : unit -> t

val enter : t -> op:int -> ?parent:span -> string -> span
(** Open a span now. *)

val leave : ?counters:counter list -> span -> unit
(** Close a span now, attaching [counters] to it. *)

val duration : span -> int

val self_ns : span -> int
(** Duration minus the time covered by child spans
    ({!Measure.self_time}) minus the attached counters' summed time. *)

val find : t -> string -> span list
(** Closed spans of one name, in the order they were opened. *)

val write : t -> out_channel -> unit
(** One JSON object per span, in opening order. *)

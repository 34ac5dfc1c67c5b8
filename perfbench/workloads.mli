(** The benchmark's workloads, each a closed loop of identical ops over
    colring's public API.

    An op is one unit of user-visible work: an election, a served
    request, or a whole model-checking run.  Every op's output is
    checked; an op whose check fails counts as failed.  Inputs come
    from the workload seed only: op [i] of a run always sees the same
    inputs, whichever mode (plain or traced) runs it. *)

type result = {
  ok : bool;  (** The op's output passed every check. *)
  deliveries : int;  (** Pulses delivered by the op (0 when it has none). *)
}

type instance = {
  op : int -> result;  (** Op [i], untraced: the end-to-end path. *)
  traced : Spans.t -> int -> result;
      (** Op [i] with spans around the calls into each layer, plus any
          extra probe spans the workload's per-layer metrics need
          (recorded outside the op's own span). *)
  layers : Spans.t -> untraced_ns:float -> (string * float) list;
      (** The workload's per-layer metrics from a traced run's spans;
          [untraced_ns] is the median untraced op time of that run. *)
}

type t = {
  name : string;
  why : string;  (** One line: what the workload stresses. *)
  domains : int;  (** Domains the load runs on. *)
  warmup : int;
      (** Ops run before the timed phase; peak RSS is read after them,
          so it covers a fixed amount of work. *)
  make : seed:int -> instance;
      (** Build the instance's fixed inputs with the program's public
          constructors. *)
}

val all : t list

val per_layer : (string * string) list
(** Every per-layer metric name with its unit, in report order.  A
    workload reports 0 for a layer its ops never enter. *)

(** The asynchronous fully-defective network simulator.

    Nodes are event-driven (Section 2): a node acts once at start-up
    and afterwards only when the scheduler delivers a pulse to it.  The
    simulator keeps, per directed link, a FIFO queue of in-flight
    messages, and per node and local port a mailbox of delivered but
    not yet consumed messages — the paper's "incoming queue" that
    [recvCW]/[recvCCW] poll.  A {!Scheduler.t} decides which in-flight
    message moves into a mailbox next; after each delivery the
    receiving node's program is woken and polls its mailboxes.

    The payload type ['m] is [unit] for content-oblivious algorithms
    (see {!pulse}); the classic baselines instantiate it with real
    message contents.  Nothing in the simulator lets a scheduler or a
    program observe anything the model forbids. *)

type 'm t

(** {2 Node programs} *)

type 'm api = {
  node : int;  (** This node's index; programs must not use it as an ID. *)
  recv : Port.t -> 'm option;
      (** Consume the oldest mailbox entry of a local port, if any —
          the paper's [recv*()] (returns 0/1 there). *)
  recv_pulse : Port.t -> bool;
      (** Like {!field-recv} but discards the payload, returning only
          whether a pulse was consumed.  This is the whole [recv*()]
          observable for content-oblivious algorithms ([pulse = unit]),
          and unlike [recv] it allocates nothing. *)
  peek : Port.t -> 'm option;  (** Look without consuming. *)
  pending : Port.t -> int;  (** Mailbox length. *)
  send : Port.t -> 'm -> unit;
      (** Emit through a local port.  Raises after {!field-terminate}. *)
  set_output : Output.t -> unit;
      (** Revise this node's output (allowed until termination). *)
  terminate : unit -> unit;
      (** Enter the terminating state: all later incoming pulses are
          ignored (and counted as quiescence violations). *)
  mutable rng : Colring_stats.Rng.t;
      (** Private randomness source.  Mutable so a multi-instance
          engine ({!Flock}) can rebind a recycled slot's per-node
          streams without rebuilding the closure record; programs must
          treat it as read-only. *)
}

type 'm program = {
  start : 'm api -> unit;  (** The one initial activation. *)
  wake : 'm api -> unit;
      (** Called after every delivery to this node; must poll mailboxes
          to a fixpoint and return (never block). *)
  inspect : unit -> (string * int) list;
      (** Named internal counters (ρ, σ, …) for invariant probes.  The
          label list is a fixed schema per program: every call returns
          the same labels in the same order, only the values change.
          The model checker's {!write_key} leaves the labels out and
          raises [Invalid_argument] when they change. *)
  snap : Engine_intf.snapshot option;
      (** Program-state codec for the model checker's incremental undo:
          [save] flattens the program's whole mutable state to ints,
          [load] restores it exactly.  [None] opts out — the checker
          then falls back to replay-from-prefix for this network. *)
}

val silent_program : 'm program
(** A program that never sends, consumes or decides (and has a trivial
    snapshot, since it holds no state). *)

(** {2 Construction} *)

val create :
  ?sink:Sink.t -> ?seed:int -> Topology.t -> (int -> 'm program) -> 'm t
(** [create topo make_program] instantiates [make_program v] for every
    node [v] and runs each program's [start].  [seed] derives every
    node's private {!Colring_stats.Rng.t} stream (default 0).

    [sink] observes every event of the run (default {!Sink.null}).
    The engine tees its own {!Sink.counters} over [sink], so
    {!metrics} is a by-product of the same emission path; with the
    default null sink the steady-state hot path allocates nothing.
    (The pre-sink [?record_trace] switch was removed on the DESIGN.md
    §6 timeline: pass [~sink:(Sink.memory ())] and read the buffer
    back with {!trace}.) *)

(** {2 Execution} *)

type run_result = Engine_intf.run_result = {
  sends : int;  (** Total pulses sent — the paper's message complexity. *)
  deliveries : int;
  quiescent : bool;
      (** Nothing in flight and every mailbox empty when the run ended. *)
  all_terminated : bool;
  exhausted : bool;  (** Stopped by [max_deliveries] instead of quiescence. *)
  termination_order : int list;  (** Chronological. *)
}
(** Re-export of {!Engine_intf.run_result}, the outcome record every
    engine shares. *)

val run :
  ?max_deliveries:int ->
  ?snapshot_every:int ->
  ?probe:(step:int -> unit) ->
  'm t ->
  Scheduler.t ->
  run_result
(** Deliver until no message is in flight (or [max_deliveries] is hit,
    default [50_000_000]).  An exceeded budget is reported as
    {!run_result.exhausted}, never raised — the same semantics (and
    default) as [Colring_graph.Gnetwork.run]; only
    [Colring_fastsim.Driver.run] intentionally deviates, raising
    [Invalid_argument] because its closed-form resolution cannot stop
    mid-pulse.  [probe] runs after every delivery-and-wake,
    letting tests assert invariants at each reachable configuration.
    [snapshot_every] (default 0 = off) emits a {!Sink.t.on_snapshot}
    counter record every that many deliveries — only when a live sink
    was passed at {!create}, so the default path never allocates the
    counter list. *)

val step : 'm t -> Scheduler.t -> bool
(** Deliver exactly one message; [false] when nothing was in flight. *)

val active_links : 'm t -> int list
(** Directed links that currently hold in-flight messages, ascending —
    the choice points of the asynchronous adversary. *)

val force_step : 'm t -> link:int -> unit
(** Deliver the oldest message of one specific link (bypassing any
    scheduler); raises [Invalid_argument] if the link is empty.  Used
    by the exhaustive explorer and the model checker. *)

val enabled_count : 'm t -> int
(** Number of links with messages in flight — the branching factor of
    the asynchronous adversary at the current state.  O(1). *)

val enabled_link : 'm t -> after:int -> int
(** [enabled_link t ~after] is the smallest non-empty link strictly
    greater than [after], or [-1] when none; start with [~after:(-1)]
    and feed each result back to enumerate the enabled set in
    ascending link order without allocating.  O({!enabled_count}) per
    call. *)

val channel_length : 'm t -> link:int -> int
val mailbox_length : 'm t -> node:int -> port:Port.t -> int

val channel_payloads : 'm t -> link:int -> 'm array
(** In-flight payloads of one directed link, oldest first.  Allocates;
    for invariant probes ({!Colring_mc.Inductive}), not the hot path. *)

val mailbox_payloads : 'm t -> node:int -> port:Port.t -> 'm array
(** Delivered-but-unconsumed payloads of one mailbox, oldest first. *)

(** {2 Incremental undo}

    The {!Engine_intf.NETWORK} undo contract: [force_step_undo] is
    {!force_step} plus a record of everything the delivery mutated;
    [undo_step] restores the pre-delivery state exactly, including
    metrics, clocks, mailbox/channel contents and the destination
    program's state (via its [snap] codec).  Records must be undone in
    LIFO order.  Only legal on an {!undo_capable} network: every
    program carries a [snap] codec and no user sink observes the run
    (events cannot be unemitted); programs must also not consume
    [rng] randomness, which is not rolled back — the model checker
    requires deterministic programs anyway. *)

type 'm undo

val undo_capable : 'm t -> bool

val force_step_undo : 'm t -> link:int -> 'm undo
(** Raises [Invalid_argument] when the link is empty or the network is
    not undo-capable. *)

val undo_step : 'm t -> 'm undo -> unit

val inject : 'm t -> node:int -> port:Port.t -> 'm -> unit
(** Put a message in flight on [node]'s outgoing channel at [port] as
    if the node had sent it — a deliberate *violation* of the model
    (Section 2: "pulses cannot be dropped or injected by the channel").
    Exists only so tests and benches can demonstrate that the
    no-injection assumption is load-bearing: a single spurious pulse
    breaks Algorithm 2's counting.  Injected messages go through the
    same enqueue path as {!field-send}: they are counted in
    {!Metrics.sends} and stamped with the current batch number, exactly
    as if sent by the most recent activation. *)

(** {2 Observation} *)

val topology : 'm t -> Topology.t
val size : 'm t -> int
val output : 'm t -> int -> Output.t
val outputs : 'm t -> Output.t array
val terminated : 'm t -> int -> bool
val all_terminated : 'm t -> bool
val termination_order : 'm t -> int list
val inspect : 'm t -> int -> (string * int) list
val inspect_counter : 'm t -> int -> string -> int
(** Raises [Not_found] for an unknown counter name. *)

val metrics : 'm t -> Metrics.t

val fingerprint : 'm t -> string
(** Canonical observable-state string ({!Engine_intf.NETWORK}'s
    contract): channel and mailbox depths, termination flags, outputs
    and inspect counters.  Two states print equal iff no monitor can
    tell them apart. *)

val write_key : 'm t -> State_key.t -> unit
(** Append the model checker's dedup key for the current state to a
    writer: the send, delivery and post-termination-delivery counters,
    then exactly the fields {!fingerprint} covers, in its order, as
    varints.  Inspect labels are checked against the writer's recorded
    schema instead of written ({!State_key.add_inspect}), so two
    states get equal keys iff their counters and fingerprints are
    equal.  Allocates only the key bytes and what [inspect] returns. *)

val num_links : Topology.t -> int
(** {!Topology.num_links}, re-exported so the ring engine satisfies
    {!Engine_intf.NETWORK} verbatim. *)

val link_dst_node : Topology.t -> int -> int
(** The destination node of a directed link (the node component of
    {!Topology.link_dst}). *)

val trace : 'm t -> Trace.t option
(** The buffer of the memory sink attached to this network via [?sink],
    if any. *)

val in_flight : 'm t -> int
(** Messages in channels (sent, not yet delivered). *)

val mailbox_backlog : 'm t -> int
(** Messages delivered but not yet consumed, over all nodes. *)

val is_quiescent : 'm t -> bool
(** [in_flight = 0] and [mailbox_backlog = 0]. *)

val causal_span : 'm t -> int
(** The asynchronous time of the run so far: the longest chain of
    causally dependent deliveries, counting each message as one time
    unit (a pulse sent by an activation carries depth one more than the
    deepest pulse its node has received).  The paper analyses message
    complexity only; this exposes the orthogonal time dimension. *)

(** {2 Pulses} *)

type pulse = unit

val pulse : pulse

(* Tests for the discrete-event simulator: topology invariants, FIFO
   channel semantics, scheduler behaviour, mailboxes, termination
   accounting, traces, and the effects-based blocking layer. *)

open Colring_engine
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology_oriented () =
  let t = Topology.oriented 5 in
  Topology.check t;
  checkb "oriented" true (Topology.is_oriented t);
  checki "cw neighbor" 3 (Topology.cw_neighbor t 2);
  checki "ccw neighbor" 1 (Topology.ccw_neighbor t 2);
  checki "wraps" 0 (Topology.cw_neighbor t 4);
  checki "distance" 3 (Topology.distance_cw t 4 2);
  let w, p = Topology.peer t 1 Port.P1 in
  checki "peer node" 2 w;
  checkb "peer port" true (Port.equal p Port.P0)

let test_topology_non_oriented () =
  let t = Topology.non_oriented ~flips:[| false; true; false; true |] in
  Topology.check t;
  checkb "not oriented" false (Topology.is_oriented t);
  checkb "flip ground truth" true (Topology.flipped t 1);
  (* Flipping relabels ports but not the ring structure. *)
  checki "cw neighbor" 2 (Topology.cw_neighbor t 1);
  checki "ccw neighbor" 0 (Topology.ccw_neighbor t 1);
  let w, p = Topology.peer t 1 Port.P0 in
  (* Node 1 is flipped, so its clockwise port is P0; node 2 is not
     flipped, so clockwise pulses arrive on its P0. *)
  checki "peer node" 2 w;
  checkb "peer port" true (Port.equal p Port.P0)

let test_topology_self_ring () =
  let t = Topology.oriented 1 in
  Topology.check t;
  checki "self cw" 0 (Topology.cw_neighbor t 0);
  let w, p = Topology.peer t 0 Port.P1 in
  checki "self peer" 0 w;
  checkb "arrives other port" true (Port.equal p Port.P0)

let test_topology_all_flip_patterns_are_rings () =
  for n = 1 to 6 do
    for mask = 0 to (1 lsl n) - 1 do
      let flips = Array.init n (fun i -> mask land (1 lsl i) <> 0) in
      Topology.check (Topology.non_oriented ~flips)
    done
  done;
  checkb "all valid" true true

let test_link_direction () =
  let t = Topology.oriented 3 in
  let cw_link = Topology.link_id t 0 Port.P1 in
  let ccw_link = Topology.link_id t 0 Port.P0 in
  checkb "cw" true (Topology.link_travels_cw t cw_link);
  checkb "ccw" false (Topology.link_travels_cw t ccw_link)

(* ------------------------------------------------------------------ *)
(* Network semantics *)

(* A relay that forwards everything from P0 to P1 with payloads. *)
let relay_program () =
  {
    Network.snap = None;
    Network.start = (fun _ -> ());
    wake =
      (fun api ->
        let continue = ref true in
        while !continue do
          match api.recv Port.P0 with
          | Some m -> api.send Port.P1 m
          | None -> continue := false
        done);
    inspect = (fun () -> []);
  }

(* Node 0 injects [k] numbered messages, everyone forwards, node 0
   collects them back. *)
let test_fifo_order_preserved () =
  let collected = ref [] in
  let injector k =
    {
      Network.snap = None;
      Network.start =
        (fun api ->
          for i = 1 to k do
            api.send Port.P1 i
          done);
      wake =
        (fun api ->
          let continue = ref true in
          while !continue do
            match api.recv Port.P0 with
            | Some m -> collected := m :: !collected
            | None -> continue := false
          done);
      inspect = (fun () -> []);
    }
  in
  let topo = Topology.oriented 4 in
  List.iter
    (fun sched ->
      collected := [];
      let net =
        Network.create topo (fun v ->
            if v = 0 then injector 5 else relay_program ())
      in
      let result = Network.run net sched in
      checkb (sched.Scheduler.name ^ " quiescent") true result.quiescent;
      Alcotest.(check (list int))
        (sched.Scheduler.name ^ " fifo order")
        [ 1; 2; 3; 4; 5 ] (List.rev !collected))
    (Scheduler.all_deterministic ()
    @ [ Scheduler.random (Rng.create ~seed:1) ])

let test_send_counts_and_metrics () =
  let topo = Topology.oriented 3 in
  let net =
    Network.create topo (fun v ->
        if v = 0 then
          {
            Network.snap = None;
            Network.start = (fun api -> api.send Port.P1 ());
            wake = (fun _ -> ());
            inspect = (fun () -> []);
          }
        else Network.silent_program)
  in
  let result = Network.run net Scheduler.fifo in
  checki "sends" 1 result.sends;
  checki "deliveries" 1 result.deliveries;
  checkb "not quiescent (mailbox backlog)" false result.quiescent;
  checki "backlog" 1 (Network.mailbox_backlog net);
  checki "cw sends" 1 (Metrics.sends_cw (Network.metrics net))

let test_terminated_nodes_drop_pulses () =
  let topo = Topology.oriented 2 in
  (* Node 0 sends two pulses; node 1 terminates after consuming one. *)
  let net =
    Network.create topo (fun v ->
        if v = 0 then
          {
            Network.snap = None;
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P1 ());
            wake = (fun _ -> ());
            inspect = (fun () -> []);
          }
        else
          {
            Network.snap = None;
            Network.start = (fun _ -> ());
            wake =
              (fun api ->
                match api.recv Port.P0 with
                | Some () -> api.terminate ()
                | None -> ());
            inspect = (fun () -> []);
          })
  in
  let result = Network.run net Scheduler.fifo in
  checki "one dropped" 1
    (Metrics.post_termination_deliveries (Network.metrics net));
  checkb "quiescent" true result.quiescent;
  Alcotest.(check (list int)) "termination order" [ 1 ] result.termination_order

let test_send_after_terminate_rejected () =
  let topo = Topology.oriented 1 in
  Alcotest.check_raises "send after terminate"
    (Failure "Network: send after terminate") (fun () ->
      ignore
        (Network.create topo (fun _ ->
             {
               Network.snap = None;
               Network.start =
                 (fun api ->
                   api.terminate ();
                   api.send Port.P1 ());
               wake = (fun _ -> ());
               inspect = (fun () -> []);
             })))

let test_scheduler_determinism () =
  (* Same seed => identical executions, different seed => (almost surely)
     different delivery traces for a workload with interleaving. *)
  let run seed =
    let topo = Topology.oriented 6 in
    let net =
      Network.create ~sink:(Sink.memory ()) topo (fun v ->
          Colring_core.Algo2.program ~id:(v + 3))
    in
    let _ = Network.run net (Scheduler.random (Rng.create ~seed)) in
    match Network.trace net with
    | Some tr -> Trace.events tr
    | None -> []
  in
  checkb "same seed same trace" true (run 5 = run 5);
  checkb "different seed different trace" true (run 5 <> run 6)

let test_trace_consume_sequence () =
  let topo = Topology.oriented 1 in
  let net =
    Network.create ~sink:(Sink.memory ()) topo (fun _ ->
        Colring_core.Algo1.program ~id:3)
  in
  let _ = Network.run net Scheduler.fifo in
  match Network.trace net with
  | None -> Alcotest.fail "no trace"
  | Some tr ->
      (* Algorithm 1 with id 3 alone: the node consumes 3 CW pulses. *)
      checki "consumes" 3 (List.length (Trace.consumed_ports tr ~node:0))

let test_max_deliveries_exhaustion () =
  (* A two-node pulse ping-pong never quiesces; the engine must stop and
     flag exhaustion. *)
  let forever =
    {
      Network.snap = None;
      Network.start = (fun api -> api.send Port.P1 ());
      wake =
        (fun api ->
          let continue = ref true in
          while !continue do
            match api.recv Port.P0 with
            | Some () -> api.send Port.P1 ()
            | None -> continue := false
          done);
      inspect = (fun () -> []);
    }
  in
  let net = Network.create (Topology.oriented 2) (fun _ -> forever) in
  let result = Network.run ~max_deliveries:100 net Scheduler.fifo in
  checkb "exhausted" true result.exhausted;
  checki "stopped at bound" 100 result.deliveries

let test_per_node_rng_streams_differ () =
  let seen = ref [] in
  let net =
    Network.create ~seed:7 (Topology.oriented 4) (fun _ ->
        {
          Network.snap = None;
          Network.start =
            (fun api -> seen := Rng.int api.rng 1_000_000 :: !seen);
          wake = (fun _ -> ());
          inspect = (fun () -> []);
        })
  in
  ignore (Network.run net Scheduler.fifo);
  let sorted = List.sort_uniq compare !seen in
  checki "four distinct draws" 4 (List.length sorted)

(* ------------------------------------------------------------------ *)
(* Schedulers *)

let mk_two_senders () =
  (* Node 0 sends CW then CCW in one batch; a fifo scheduler with CW
     priority must deliver the CW pulse first. *)
  Network.create (Topology.oriented 2) (fun v ->
      if v = 0 then
        {
          Network.snap = None;
          Network.start =
            (fun api ->
              api.send Port.P0 ();
              (* CCW, sent first *)
              api.send Port.P1 () (* CW, sent second *));
          wake = (fun _ -> ());
          inspect = (fun () -> []);
        }
      else Network.silent_program)

let test_fifo_cw_priority () =
  let net = mk_two_senders () in
  let m = Network.metrics net in
  ignore (Network.step net Scheduler.fifo);
  (* The CW pulse from node 0 arrives at node 1's P0. *)
  checki "cw delivered first" 1 (Metrics.delivered_to m ~node:1 ~port_index:0);
  checki "ccw not yet" 0 (Metrics.delivered_to m ~node:1 ~port_index:1)

let test_global_fifo_send_order () =
  let net = mk_two_senders () in
  let m = Network.metrics net in
  ignore (Network.step net Scheduler.global_fifo);
  (* Strict send order: the CCW pulse was sent first. *)
  checki "ccw delivered first" 1 (Metrics.delivered_to m ~node:1 ~port_index:1)

let test_starve_node_delays () =
  (* With two pulses headed to different nodes, starve-node-1 must pick
     the other node's delivery first. *)
  let net =
    Network.create (Topology.oriented 3) (fun v ->
        if v = 0 then
          {
            Network.snap = None;
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                (* to node 1 *)
                api.send Port.P0 () (* to node 2 *));
            wake = (fun _ -> ());
            inspect = (fun () -> []);
          }
        else Network.silent_program)
  in
  let m = Network.metrics net in
  ignore (Network.step net (Scheduler.starve_node ~node:1));
  checki "node 2 first" 1 (Metrics.delivered_to m ~node:2 ~port_index:1)

(* ------------------------------------------------------------------ *)
(* Blocking layer *)

let test_blocking_ping_pong () =
  (* Node 0: send CW, await reply CCW, terminate.  Node 1: await CW,
     reply CCW, terminate.  Written in direct style. *)
  let zero api =
    api.Network.send Port.P1 ();
    Blocking.recv Port.P1;
    api.set_output (Output.with_value 1 Output.empty);
    api.terminate ()
  in
  let one api =
    Blocking.recv Port.P0;
    api.Network.send Port.P0 ();
    api.set_output (Output.with_value 2 Output.empty);
    api.terminate ()
  in
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        Blocking.make (if v = 0 then zero else one))
  in
  let result = Network.run net Scheduler.fifo in
  checkb "all terminated" true result.all_terminated;
  checkb "quiescent" true result.quiescent;
  checki "sends" 2 result.sends;
  Alcotest.(check (option int)) "node0 value" (Some 1)
    (Network.output net 0).Output.value

let test_blocking_recv_any () =
  (* Node 0 sends on both ports; node 1 (blocking) consumes two pulses
     with recv_any and records the ports. *)
  let got = ref [] in
  let one _api =
    let p1 = Blocking.recv_any () in
    let p2 = Blocking.recv_any () in
    got := [ p1; p2 ]
  in
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        if v = 0 then
          {
            Network.snap = None;
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P0 ());
            wake = (fun _ -> ());
            inspect = (fun () -> []);
          }
        else Blocking.make one)
  in
  let result = Network.run net Scheduler.fifo in
  checkb "quiescent" true result.quiescent;
  checki "both consumed" 2 (List.length !got)

let test_blocking_immediate_mailbox () =
  (* A blocking recv must consume a pulse that is already waiting. *)
  let order = ref [] in
  let one _api =
    Blocking.recv Port.P0;
    order := 1 :: !order;
    Blocking.recv Port.P0;
    order := 2 :: !order
  in
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        if v = 0 then
          {
            Network.snap = None;
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P1 ());
            wake = (fun _ -> ());
            inspect = (fun () -> []);
          }
        else Blocking.make one)
  in
  let result = Network.run net Scheduler.fifo in
  checkb "quiescent" true result.quiescent;
  Alcotest.(check (list int)) "both recvs ran" [ 2; 1 ] !order

(* ------------------------------------------------------------------ *)
(* Forced stepping and state accessors (the explorer's toolkit) *)

let test_force_step_and_accessors () =
  let topo = Topology.oriented 3 in
  let net =
    Network.create topo (fun v -> Colring_core.Algo1.program ~id:(v + 1))
  in
  (* Three start-up pulses in flight, one per clockwise link. *)
  checki "three active links" 3 (List.length (Network.active_links net));
  checki "in flight" 3 (Network.in_flight net);
  let link = Topology.link_id topo 0 Port.P1 in
  checki "channel length" 1 (Network.channel_length net ~link);
  Network.force_step net ~link;
  checki "consumed from that link" 0 (Network.channel_length net ~link);
  Alcotest.check_raises "empty link rejected"
    (Invalid_argument "Network.force_step: empty link") (fun () ->
      Network.force_step net ~link)

let test_mailbox_length_tracks_guarded_pulses () =
  (* A program that never consumes: deliveries pile up in the mailbox. *)
  let net =
    Network.create (Topology.oriented 2) (fun v ->
        if v = 0 then
          {
            Network.snap = None;
            Network.start =
              (fun api ->
                api.send Port.P1 ();
                api.send Port.P1 ());
            wake = (fun _ -> ());
            inspect = (fun () -> []);
          }
        else Network.silent_program)
  in
  let _ = Network.run net Scheduler.fifo in
  checki "mailbox holds both" 2
    (Network.mailbox_length net ~node:1 ~port:Port.P0);
  checki "backlog" 2 (Network.mailbox_backlog net);
  checkb "not quiescent" false (Network.is_quiescent net)

let test_diagram_deterministic () =
  let render () =
    let net =
      Network.create ~sink:(Sink.memory ()) (Topology.oriented 2) (fun v ->
          Colring_core.Algo2.program ~id:(v + 1))
    in
    let _ = Network.run net Scheduler.fifo in
    match Network.trace net with
    | Some tr -> Diagram.render tr ~n:2
    | None -> ""
  in
  Alcotest.(check string) "stable" (render ()) (render ())

let test_explore_trivial_instances () =
  (* A network with no sends at all: one state, one terminal. *)
  let stats =
    Explore.exhaustive
      ~make:(fun () ->
        Network.create (Topology.oriented 2) (fun _ -> Network.silent_program))
      ~check:(fun net -> Network.is_quiescent net)
      ()
  in
  checki "one state" 1 stats.Explore.distinct_states;
  checki "one terminal" 1 stats.Explore.terminal_states;
  checki "no failures" 0 stats.Explore.failures

let test_explore_respects_max_states () =
  let stats =
    Explore.exhaustive ~max_states:5
      ~make:(fun () ->
        Network.create (Topology.oriented 3) (fun v ->
            Colring_core.Algo2.program ~id:(v + 2)))
      ~check:(fun _ -> true)
      ()
  in
  checkb "truncated" true stats.Explore.truncated;
  checkb "bounded" true (stats.Explore.distinct_states <= 6)

(* ------------------------------------------------------------------ *)
(* Round-robin over synthetic views *)

(* A view over a fixed link set with trivial metadata, as the network
   would present it — the buffer is deliberately unordered. *)
let synthetic_view links =
  {
    Scheduler.nonempty = Array.copy links;
    count = Array.length links;
    head_seq = (fun l -> l);
    head_batch = (fun _ -> 0);
    travels_cw = (fun _ -> None);
    dst_node = (fun _ -> 0);
    step = 0;
    heads = Head_index.create ~links:128;
  }

(* ------------------------------------------------------------------ *)
(* Direction keys over the optional ground truth *)

(* Even link ids travel cw, odd ids ccw, and links >= 100 belong to a
   directionless (general-graph) topology. *)
let directed_view links =
  {
    (synthetic_view links) with
    Scheduler.head_batch = (fun _ -> 0);
    head_seq = (fun l -> l);
    travels_cw =
      (fun l -> if l >= 100 then None else Some (l mod 2 = 0));
  }

let test_direction_bias_option () =
  (* fifo breaks batch ties cw-first; [None] links count as
     non-preferred, so the oldest cw link wins over both. *)
  let v = directed_view [| 101; 3; 4; 2 |] in
  checki "fifo prefers oldest cw" 2 (Scheduler.fifo.Scheduler.pick v);
  let v = directed_view [| 101; 3; 5 |] in
  checki "fifo falls back to seq among non-cw" 3
    (Scheduler.fifo.Scheduler.pick v);
  let bias_ccw = Scheduler.bias_direction ~cw:false in
  let v = directed_view [| 101; 2; 5; 3 |] in
  checki "bias-ccw prefers oldest ccw" 3 (bias_ccw.Scheduler.pick v);
  let bias_cw = Scheduler.bias_direction ~cw:true in
  (* A directionless view never satisfies either bias: both degrade to
     their seq tie-break over the whole link set. *)
  let v = synthetic_view [| 104; 101; 103 |] in
  checki "bias-cw degrades to seq on None" 101 (bias_cw.Scheduler.pick v);
  let v = synthetic_view [| 104; 101; 103 |] in
  checki "bias-ccw degrades to seq on None" 101 (bias_ccw.Scheduler.pick v)

let test_round_robin_fairness () =
  (* Over a static link set every link must be picked equally often,
     regardless of buffer order. *)
  let v = synthetic_view [| 9; 1; 6 |] in
  let rr = Scheduler.round_robin () in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3_000 do
    let l = rr.Scheduler.pick v in
    Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l))
  done;
  checki "link 1" 1_000 (Hashtbl.find counts 1);
  checki "link 6" 1_000 (Hashtbl.find counts 6);
  checki "link 9" 1_000 (Hashtbl.find counts 9)

let test_round_robin_wrap () =
  (* After picking the largest link the cursor passes every link id;
     the next pick must wrap to the smallest non-empty link. *)
  let v = synthetic_view [| 9; 1; 6 |] in
  let rr = Scheduler.round_robin () in
  checki "first" 1 (rr.Scheduler.pick v);
  checki "second" 6 (rr.Scheduler.pick v);
  checki "third" 9 (rr.Scheduler.pick v);
  checki "wraps to smallest" 1 (rr.Scheduler.pick v)

(* ------------------------------------------------------------------ *)
(* Every scheduler picks a member of the non-empty prefix *)

let assert_member (s : Scheduler.t) =
  {
    Scheduler.name = s.Scheduler.name ^ "+member";
    pick =
      (fun v ->
        let l = s.Scheduler.pick v in
        let ok = ref false in
        for i = 0 to v.Scheduler.count - 1 do
          if v.Scheduler.nonempty.(i) = l then ok := true
        done;
        if not !ok then
          Alcotest.failf "%s picked link %d outside the non-empty prefix"
            s.Scheduler.name l;
        l);
  }

let test_all_schedulers_pick_members () =
  let schedulers =
    Scheduler.all_deterministic () @ [ Scheduler.random (Rng.create ~seed:3) ]
  in
  List.iter
    (fun s ->
      let n = 8 in
      let net =
        Network.create ~seed:1 (Topology.oriented n) (fun v ->
            Colring_core.Algo2.program ~id:(v + 1))
      in
      let r = Network.run ~max_deliveries:20_000 net (assert_member s) in
      checkb
        (Printf.sprintf "%s made progress" s.Scheduler.name)
        true (r.deliveries > 0))
    schedulers

(* ------------------------------------------------------------------ *)
(* Whole-run determinism *)

let run_fingerprint ~seed ~sched_seed n =
  let net =
    Network.create ~seed (Topology.oriented n) (fun v ->
        Colring_core.Algo2.program ~id:(v + 1))
  in
  let r = Network.run net (Scheduler.random (Rng.create ~seed:sched_seed)) in
  (r, Metrics.to_assoc (Network.metrics net), Network.causal_span net)

let test_determinism_same_seed () =
  (* The reusable mutable view and the unordered non-empty buffer must
     not leak nondeterminism: equal seeds give bit-equal runs. *)
  let r1, m1, c1 = run_fingerprint ~seed:5 ~sched_seed:11 9 in
  let r2, m2, c2 = run_fingerprint ~seed:5 ~sched_seed:11 9 in
  checkb "run_result equal" true (r1 = r2);
  checkb "metrics equal" true (m1 = m2);
  checki "causal span equal" c1 c2

(* ------------------------------------------------------------------ *)
(* Injection uses the send path's batch convention *)

let test_inject_batch_stamp () =
  let net =
    Network.create (Topology.oriented 2) (fun _ -> Network.silent_program)
  in
  (* Two start activations have run, so the current batch is 2; an
     injected pulse must be stamped with it, exactly as a send from the
     most recent activation would be. *)
  Network.inject net ~node:0 ~port:Port.P1 ();
  let seen = ref (-1) in
  let probe =
    {
      Scheduler.name = "probe";
      pick =
        (fun v ->
          let l = v.Scheduler.nonempty.(0) in
          seen := v.Scheduler.head_batch l;
          l);
    }
  in
  checkb "stepped" true (Network.step net probe);
  checki "inject stamps current batch" 2 !seen

(* ------------------------------------------------------------------ *)
(* Ring / Envq backing stores: growth with a wrapped live span, and
   the pop-retention fix (popped slots must not keep payloads alive) *)

let test_ring_grow_mid_wrap () =
  let r = Ring.create () in
  let model = Queue.create () in
  (* Fill to the initial power-of-two capacity, drain past the
     midpoint so [head] is non-zero, then push enough to force [grow]
     while the live span wraps around the array end. *)
  for i = 0 to 7 do
    Ring.push r i;
    Queue.push i model
  done;
  for _ = 0 to 4 do
    checki "drain" (Queue.pop model) (Ring.pop r)
  done;
  for i = 8 to 40 do
    Ring.push r i;
    Queue.push i model
  done;
  while not (Ring.is_empty r) do
    checki "fifo across grow" (Queue.pop model) (Ring.pop r)
  done;
  checki "model drained too" 0 (Queue.length model)

let test_envq_grow_mid_wrap_meta () =
  let q = Envq.create () in
  let model = Queue.create () in
  let push i =
    Envq.push q (100 + i) ~seq:i ~batch:(2 * i) ~depth:(3 * i);
    Queue.push i model
  in
  let pop_and_check () =
    let i = Queue.pop model in
    checki "seq" i (Envq.head_seq q);
    checki "batch" (2 * i) (Envq.head_batch q);
    checki "depth" (3 * i) (Envq.head_depth q);
    checki "payload" (100 + i) (Envq.pop q)
  in
  for i = 0 to 7 do
    push i
  done;
  for _ = 0 to 4 do
    pop_and_check ()
  done;
  (* Growth happens with head = 5: payloads and the stride-3 meta
     array must both be unwrapped consistently. *)
  for i = 8 to 40 do
    push i
  done;
  while not (Envq.is_empty q) do
    pop_and_check ()
  done

(* The probes live in [@inline never] helpers so no caller register
   keeps the popped payload reachable.  The queues retain at most the
   FIRST element ever pushed (their clearing filler), so the tracked
   payload is the second push. *)
let[@inline never] ring_push_pop_probe r (w : int ref Weak.t) =
  let filler = ref 0 in
  let probe = ref 42 in
  Weak.set w 0 (Some probe);
  Ring.push r filler;
  Ring.push r probe;
  ignore (Ring.pop r);
  ignore (Ring.pop r)

let test_ring_pop_releases_payload () =
  let r = Ring.create () in
  let w = Weak.create 1 in
  ring_push_pop_probe r w;
  Gc.full_major ();
  Gc.full_major ();
  checkb "popped payload is collectable" true (Weak.get w 0 = None)

let[@inline never] envq_push_pop_probe q (w : int ref Weak.t) =
  let filler = ref 0 in
  let probe = ref 42 in
  Weak.set w 0 (Some probe);
  Envq.push q filler ~seq:0 ~batch:0 ~depth:0;
  Envq.push q probe ~seq:1 ~batch:0 ~depth:1;
  ignore (Envq.pop q);
  ignore (Envq.pop q)

let test_envq_pop_releases_payload () =
  let q = Envq.create () in
  let w = Weak.create 1 in
  envq_push_pop_probe q w;
  Gc.full_major ();
  Gc.full_major ();
  checkb "popped payload is collectable" true (Weak.get w 0 = None)

let prop_envq_meta_survives_growth =
  (* Model check against Stdlib.Queue: any interleaving of pushes and
     pops (biased toward pushes so growth triggers) keeps payloads and
     their seq/batch/depth triples in FIFO lockstep. *)
  QCheck.Test.make ~name:"envq matches a queue of (payload, meta) triples"
    ~count:300
    QCheck.(list (QCheck.make QCheck.Gen.(int_range 0 5)))
    (fun ops ->
      let q = Envq.create () in
      let model = Queue.create () in
      let counter = ref 0 in
      let push () =
        incr counter;
        let c = !counter in
        Envq.push q c ~seq:(c * 7) ~batch:(c * 11) ~depth:(c * 13);
        Queue.push c model
      in
      let pop_matches () =
        let c = Queue.pop model in
        Envq.head_seq q = c * 7
        && Envq.head_batch q = c * 11
        && Envq.head_depth q = c * 13
        && Envq.pop q = c
      in
      List.for_all
        (fun op ->
          if op = 0 && not (Envq.is_empty q) then pop_matches ()
          else begin
            push ();
            true
          end)
        ops
      &&
      let ok = ref true in
      while !ok && not (Envq.is_empty q) do
        ok := pop_matches ()
      done;
      !ok && Queue.is_empty model)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_random_topologies_check =
  QCheck.Test.make ~name:"random non-oriented topologies are rings" ~count:200
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 64)) small_nat)
    (fun (n, seed) ->
      let t = Topology.random_non_oriented (Rng.create ~seed) n in
      Topology.check t;
      Topology.distance_cw t 0 0 = 0)

let prop_conservation =
  (* Sends = deliveries + in-flight at all times; after a full run of a
     quiescent algorithm, sends = deliveries + drops. *)
  QCheck.Test.make ~name:"pulse conservation" ~count:100
    QCheck.(pair (QCheck.make QCheck.Gen.(int_range 1 16)) small_nat)
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      let ids = Colring_core.Ids.dense rng ~n in
      let net =
        Network.create (Topology.oriented n) (fun v ->
            Colring_core.Algo2.program ~id:ids.(v))
      in
      let result = Network.run net (Scheduler.random (Rng.split rng)) in
      let m = Network.metrics net in
      result.sends
      = result.deliveries + Metrics.post_termination_deliveries m
        + Network.in_flight net)

let () =
  Alcotest.run "colring-engine"
    [
      ( "topology",
        [
          Alcotest.test_case "oriented" `Quick test_topology_oriented;
          Alcotest.test_case "non-oriented" `Quick test_topology_non_oriented;
          Alcotest.test_case "self ring" `Quick test_topology_self_ring;
          Alcotest.test_case "all flip patterns" `Quick
            test_topology_all_flip_patterns_are_rings;
          Alcotest.test_case "link direction" `Quick test_link_direction;
        ] );
      ( "network",
        [
          Alcotest.test_case "fifo order" `Quick test_fifo_order_preserved;
          Alcotest.test_case "metrics" `Quick test_send_counts_and_metrics;
          Alcotest.test_case "terminated drop" `Quick
            test_terminated_nodes_drop_pulses;
          Alcotest.test_case "send after terminate" `Quick
            test_send_after_terminate_rejected;
          Alcotest.test_case "scheduler determinism" `Quick
            test_scheduler_determinism;
          Alcotest.test_case "trace consumes" `Quick test_trace_consume_sequence;
          Alcotest.test_case "exhaustion" `Quick test_max_deliveries_exhaustion;
          Alcotest.test_case "per-node rng" `Quick
            test_per_node_rng_streams_differ;
        ] );
      ( "schedulers",
        [
          Alcotest.test_case "fifo cw priority" `Quick test_fifo_cw_priority;
          Alcotest.test_case "global fifo" `Quick test_global_fifo_send_order;
          Alcotest.test_case "starve node" `Quick test_starve_node_delays;
          Alcotest.test_case "round-robin fairness" `Quick
            test_round_robin_fairness;
          Alcotest.test_case "round-robin wrap" `Quick test_round_robin_wrap;
          Alcotest.test_case "direction bias option" `Quick
            test_direction_bias_option;
          Alcotest.test_case "picks are members" `Quick
            test_all_schedulers_pick_members;
          Alcotest.test_case "same seed, same run" `Quick
            test_determinism_same_seed;
          Alcotest.test_case "inject batch stamp" `Quick
            test_inject_batch_stamp;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "ping pong" `Quick test_blocking_ping_pong;
          Alcotest.test_case "recv_any" `Quick test_blocking_recv_any;
          Alcotest.test_case "immediate mailbox" `Quick
            test_blocking_immediate_mailbox;
        ] );
      ( "exploration-toolkit",
        [
          Alcotest.test_case "force step" `Quick test_force_step_and_accessors;
          Alcotest.test_case "mailbox length" `Quick
            test_mailbox_length_tracks_guarded_pulses;
          Alcotest.test_case "diagram deterministic" `Quick
            test_diagram_deterministic;
          Alcotest.test_case "explore trivial" `Quick
            test_explore_trivial_instances;
          Alcotest.test_case "explore max states" `Quick
            test_explore_respects_max_states;
        ] );
      ( "queues",
        [
          Alcotest.test_case "ring grow mid-wrap" `Quick test_ring_grow_mid_wrap;
          Alcotest.test_case "envq grow mid-wrap meta" `Quick
            test_envq_grow_mid_wrap_meta;
          Alcotest.test_case "ring pop releases payload" `Quick
            test_ring_pop_releases_payload;
          Alcotest.test_case "envq pop releases payload" `Quick
            test_envq_pop_releases_payload;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_random_topologies_check;
            prop_conservation;
            prop_envq_meta_survives_growth;
          ] );
    ]

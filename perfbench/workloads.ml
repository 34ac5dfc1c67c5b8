open Colring_engine
module Election = Colring_core.Election
module Formulas = Colring_core.Formulas
module Ids = Colring_core.Ids
module Algo3 = Colring_core.Algo3
module Batch = Colring_harness.Batch
module Mc = Colring_mc.Mc
module Spec = Colring_mc.Spec
module Rng = Colring_stats.Rng

type result = { ok : bool; deliveries : int }

type instance = {
  op : int -> result;
  traced : Spans.t -> int -> result;
  layers : Spans.t -> untraced_ns:float -> (string * float) list;
}

type t = {
  name : string;
  why : string;
  domains : int;
  warmup : int;
  make : seed:int -> instance;
}

let per_layer =
  [
    ("scheduler.pick_share", "ratio");
    ("scheduler.pick_ns", "ns");
    ("scheduler.nonempty_mean", "count");
    ("core.wake_share", "ratio");
    ("core.wake_ns", "ns");
    ("engine.step_share", "ratio");
    ("engine.step_ns", "ns");
    ("engine.deliveries_per_op", "count");
    ("engine.minor_words_per_delivery", "words");
    ("core.build_ms", "ms");
    ("harness.parse_ns", "ns");
    ("harness.batch_run_us", "us");
    ("engine.flock_run_us", "us");
    ("harness.batch_overhead_share", "ratio");
    ("mc.states_per_op", "count");
    ("mc.undone_per_state", "count");
    ("mc.replayed_per_op", "count");
    ("mc.dedup_ratio", "ratio");
    ("mc.sleep_pruned_per_state", "count");
    ("mc.monitor_share", "ratio");
    ("mc.terminal_share", "ratio");
    ("mc.make_share", "ratio");
    ("mc.explore_share", "ratio");
    ("runtime.speedup_j2", "ratio");
    ("trace.overhead", "ratio");
  ]

(* {2 Timing wrappers}

   Both go through the records' public fields, so the library runs
   its ordinary code with one extra closure call per pick or wake. *)

let timed_pick (c : Spans.counter) (s : Scheduler.t) =
  {
    s with
    Scheduler.pick =
      (fun view ->
        c.sum <- c.sum + view.Scheduler.count;
        let t0 = Measure.now_ns () in
        let link = s.Scheduler.pick view in
        c.ns <- c.ns + (Measure.now_ns () - t0);
        c.calls <- c.calls + 1;
        link);
  }

let timed_wake (c : Spans.counter) (p : 'm Network.program) =
  {
    p with
    Network.wake =
      (fun api ->
        let t0 = Measure.now_ns () in
        p.Network.wake api;
        c.ns <- c.ns + (Measure.now_ns () - t0);
        c.calls <- c.calls + 1);
  }

(* {2 Span arithmetic shared by the layer reports} *)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let fsum f xs = float_of_int (sum f xs)
let ratio a b = if b = 0. then 0. else a /. b

let median_ns spans =
  match spans with
  | [] -> 0.
  | _ -> Measure.median (Array.of_list (List.map (fun s -> float_of_int (Spans.duration s)) spans))

let counter_of name (s : Spans.span) =
  List.find (fun c -> c.Spans.c_name = name) s.Spans.counters

(* The scheduler layer from spans carrying a "pick" counter: its share
   of [base_ns], time per pick, and the mean number of non-empty links
   a pick saw, over the first such span only — a count that repeats
   exactly for a given seed. *)
let pick_layer spans ~base_ns =
  match spans with
  | [] -> []
  | first :: _ ->
      let pick = counter_of "pick" in
      let c0 = pick first in
      [
        ("scheduler.pick_share", ratio (fsum (fun s -> (pick s).ns) spans) base_ns);
        ( "scheduler.pick_ns",
          ratio (fsum (fun s -> (pick s).ns) spans) (fsum (fun s -> (pick s).calls) spans) );
        ("scheduler.nonempty_mean", ratio (float_of_int c0.sum) (float_of_int c0.calls));
      ]

let trace_overhead sp ~untraced_ns = ("trace.overhead", ratio (median_ns (Spans.find sp "op")) untraced_ns)

(* {2 Elections: Algorithm 2 on an oriented ring}

   Every op elects on a fresh ring of the same size with ID_max = 2n
   exactly, so every op sends and delivers n(2 ID_max + 1) pulses
   whatever the IDs' placement. *)

let elect ~name ~why ~n ~sched ~warmup =
  let id_max = 2 * n in
  let expected = Formulas.algo2_total ~n ~id_max in
  let make ~seed =
    let master = Rng.create ~seed in
    let inputs i =
      let rng = Rng.split_at master i in
      let ids = Ids.distinct rng ~n ~id_max in
      (Topology.oriented n, ids, sched rng)
    in
    let op i =
      let topo, ids, sched = inputs i in
      let r = Election.run_report Election.Algo2 ~topo ~ids ~sched in
      {
        ok = Election.ok r && r.Election.sends = expected && r.Election.leader = Some (Ids.argmax ids);
        deliveries = r.Election.deliveries;
      }
    in
    (* The traced op assembles the same run from its public pieces, so
       that wake can be wrapped, and checks what [Election.ok] checks
       for Algorithm 2 from the raw run. *)
    let traced sp i =
      let o = Spans.enter sp ~op:i "op" in
      let b = Spans.enter sp ~op:i ~parent:o "build" in
      let pick = Spans.counter "pick" and wake = Spans.counter "wake" in
      let topo, ids, s = inputs i in
      let net =
        Network.create topo (fun v -> timed_wake wake (Election.program_of Election.Algo2 ~id:ids.(v)))
      in
      Spans.leave b;
      let r = Spans.enter sp ~op:i ~parent:o "run" in
      let res = Network.run net (timed_pick pick s) in
      Spans.leave ~counters:[ pick; wake ] r;
      let v = Spans.enter sp ~op:i ~parent:o "verify" in
      let leader = Ids.argmax ids in
      let ok =
        res.Network.sends = expected && res.Network.deliveries = expected && res.Network.quiescent
        && res.Network.all_terminated && (not res.Network.exhausted)
        && Metrics.post_termination_deliveries (Network.metrics net) = 0
        && Election.unique_leader (Network.outputs net) = Some leader
        && res.Network.termination_order = Election.expected_termination_order topo ~leader
      in
      Spans.leave v;
      Spans.leave o;
      { ok; deliveries = res.Network.deliveries }
    in
    let layers sp ~untraced_ns =
      let ops = Spans.find sp "op" and runs = Spans.find sp "run" in
      let op_ns = fsum Spans.duration ops in
      let wake = counter_of "wake" in
      let step_ns = fsum Spans.self_ns runs in
      pick_layer runs ~base_ns:op_ns
      @ [
          ("core.wake_share", ratio (fsum (fun s -> (wake s).ns) runs) op_ns);
          ("core.wake_ns", ratio (fsum (fun s -> (wake s).ns) runs) (fsum (fun s -> (wake s).calls) runs));
          ("engine.step_share", ratio step_ns op_ns);
          ("engine.step_ns", ratio step_ns (fsum (fun s -> (counter_of "pick" s).calls) runs));
          ("core.build_ms", median_ns (Spans.find sp "build") /. 1e6);
          trace_overhead sp ~untraced_ns;
        ]
    in
    { op; traced; layers }
  in
  { name; why; domains = 1; warmup; make }

(* {2 serve-closed: the body of [colring serve], one request per op}

   Parse the request line, run it as a one-job batch on this domain's
   warm flock, format the reply.  The trace adds two probes outside
   the op span: the same job through [Election.run_flock] on a flock
   the benchmark owns (the engine's share of a request), and once more
   with a timed scheduler (the pick layer).  That flock is made on the
   first traced op, so set-up and memory never pay for it. *)

let result_line (s : Batch.spec) (r : Election.report) =
  Printf.sprintf "%s algo=%s n=%d seed=%d leader=%s sends=%d deliveries=%d"
    (if Election.ok r then "ok" else "FAIL")
    r.Election.algorithm r.Election.n s.Batch.seed
    (match r.Election.leader with Some v -> string_of_int v | None -> "none")
    r.Election.sends r.Election.deliveries

let serve_closed =
  let n = 16 in
  let expected = Formulas.algo2_total ~n ~id_max:(2 * n) in
  let sched seed = Scheduler.random (Rng.create ~seed) in
  let make ~seed =
    let master = Rng.create ~seed in
    let request i = Printf.sprintf "algo2 %d %d" n (Rng.int (Rng.split_at master i) 0x3fff_ffff) in
    let flock = lazy (Flock.create (Topology.oriented n)) in
    let parse line =
      match Batch.parse_line line with Ok (Some spec) -> Some spec | Ok None | Error _ -> None
    in
    let served (r : Election.report) line =
      String.starts_with ~prefix:"ok " line && r.Election.deliveries = expected
    in
    let op i =
      match parse (request i) with
      | None -> { ok = false; deliveries = 0 }
      | Some spec ->
          let r = (Batch.run ~sched [| spec |]).Batch.reports.(0) in
          let line = result_line spec r in
          { ok = served r line; deliveries = r.Election.deliveries }
    in
    let probe sp i name (spec : Batch.spec) ~sched ~counters =
      let flock = Lazy.force flock in
      let s = Spans.enter sp ~op:i name in
      let job = Election.job ~seed:spec.Batch.seed Election.Algo2 ~ids:(Batch.ids_of_spec spec) ~sched in
      let r = (Election.run_flock ~flock ~topo:(Flock.topology flock) [| job |]).(0) in
      Spans.leave ~counters s;
      Election.ok r && r.Election.deliveries = expected
    in
    let traced sp i =
      let o = Spans.enter sp ~op:i "op" in
      let p = Spans.enter sp ~op:i ~parent:o "parse" in
      let spec = parse (request i) in
      Spans.leave p;
      match spec with
      | None ->
          Spans.leave o;
          { ok = false; deliveries = 0 }
      | Some spec ->
          let b = Spans.enter sp ~op:i ~parent:o "batch_run" in
          let r = (Batch.run ~sched [| spec |]).Batch.reports.(0) in
          Spans.leave b;
          let f = Spans.enter sp ~op:i ~parent:o "format" in
          let line = result_line spec r in
          Spans.leave f;
          let v = Spans.enter sp ~op:i ~parent:o "verify" in
          let ok = served r line in
          Spans.leave v;
          Spans.leave o;
          let plain = probe sp i "flock_run" spec ~sched:(sched spec.Batch.seed) ~counters:[] in
          let pick = Spans.counter "pick" in
          let picked =
            probe sp i "flock_pick" spec ~sched:(timed_pick pick (sched spec.Batch.seed)) ~counters:[ pick ]
          in
          { ok = ok && plain && picked; deliveries = r.Election.deliveries }
    in
    let layers sp ~untraced_ns =
      let batch = median_ns (Spans.find sp "batch_run") and flock_run = median_ns (Spans.find sp "flock_run") in
      let picked = Spans.find sp "flock_pick" in
      pick_layer picked ~base_ns:(fsum Spans.duration picked)
      @ [
          ("harness.parse_ns", median_ns (Spans.find sp "parse"));
          ("harness.batch_run_us", batch /. 1e3);
          ("engine.flock_run_us", flock_run /. 1e3);
          ("harness.batch_overhead_share", ratio (batch -. flock_run) batch);
          trace_overhead sp ~untraced_ns;
        ]
    in
    { op; traced; layers }
  in
  {
    name = "serve-closed";
    why =
      "one closed-loop client through the serve path per request (parse, one-job batch on the warm flock, reply); per-job overhead and Flock dominate";
    domains = 1;
    warmup = 5_000;
    make;
  }

(* {2 check-exhaustive: the model checker on Algorithm 3}

   The instance (IDs 1..n in seed-drawn positions, seed-drawn port
   flips) is fixed for the run, exactly as [colring check -n 3 --algo
   algo3-improved --seed s] draws it, so every op explores the same
   state space.  The trace adds one untraced [~jobs:1] check per op as
   a root span, for the two-domain speed-up. *)

let check_exhaustive =
  let n = 3 in
  let make ~seed =
    let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:n in
    let spec = Spec.election (Election.Algo3 Algo3.Improved) ~ids ~topo_seed:(seed + 1) in
    let first = ref None in
    let checked (r : Mc.result) =
      r.Mc.counterexample = None && (not r.Mc.stats.Mc.truncated)
      &&
      match !first with
      | None ->
          first := Some r.Mc.stats;
          true
      | Some s -> s = r.Mc.stats
    in
    let op _ = { ok = checked (Mc.check ~jobs:2 spec); deliveries = 0 } in
    let traced sp i =
      let j1 = Spans.enter sp ~op:i "check_j1" in
      let plain = checked (Mc.check ~jobs:1 spec) in
      Spans.leave j1;
      let make = Spans.counter "make" and monitor = Spans.counter "monitor" and terminal = Spans.counter "terminal" in
      let timed c f x =
        let t0 = Measure.now_ns () in
        let y = f x in
        c.Spans.ns <- c.Spans.ns + (Measure.now_ns () - t0);
        c.Spans.calls <- c.Spans.calls + 1;
        y
      in
      let wrapped =
        {
          spec with
          Mc.make = timed make spec.Mc.make;
          monitor = (fun () -> timed monitor (spec.Mc.monitor ()));
          terminal = timed terminal spec.Mc.terminal;
        }
      in
      let o = Spans.enter sp ~op:i "op" in
      let r = Mc.check ~jobs:1 wrapped in
      Spans.leave ~counters:[ make; monitor; terminal ] o;
      { ok = plain && checked r; deliveries = 0 }
    in
    let layers sp ~untraced_ns =
      let ops = Spans.find sp "op" in
      let op_ns = fsum Spans.duration ops in
      let share name = ratio (fsum (fun s -> (counter_of name s).ns) ops) op_ns in
      let stats =
        match !first with Some s -> s | None -> invalid_arg "check-exhaustive: no op has run"
      in
      let states = float_of_int stats.Mc.states in
      let j1_ns = median_ns (Spans.find sp "check_j1") in
      [
        ("mc.states_per_op", states);
        ("mc.undone_per_state", ratio (float_of_int stats.Mc.undone_deliveries) states);
        ("mc.replayed_per_op", float_of_int stats.Mc.replayed_deliveries);
        ( "mc.dedup_ratio",
          ratio (float_of_int stats.Mc.dedup_pruned) (float_of_int (stats.Mc.states + stats.Mc.dedup_pruned)) );
        ("mc.sleep_pruned_per_state", ratio (float_of_int stats.Mc.sleep_pruned) states);
        ("mc.monitor_share", share "monitor");
        ("mc.terminal_share", share "terminal");
        ("mc.make_share", share "make");
        ("mc.explore_share", ratio (fsum Spans.self_ns ops) op_ns);
        ("runtime.speedup_j2", ratio j1_ns untraced_ns);
        (* The traced op is a [~jobs:1] check: compare it with the
           untraced [~jobs:1] check, not with the [~jobs:2] ops. *)
        trace_overhead sp ~untraced_ns:j1_ns;
      ]
    in
    { op; traced; layers }
  in
  {
    name = "check-exhaustive";
    why =
      "Mc.check on 2 domains over every schedule of Algorithm 3 (improved IDs) at n=3: exploration, undo, fingerprints and Pool.Steal";
    domains = 2;
    warmup = 60;
    make;
  }

let all =
  [
    elect ~name:"elect-fifo"
      ~why:
        "Algorithm 2, n=128, ID_max=2n, Definition-21 fifo scheduler: the argmin pick over non-empty links takes ~2/3 of op time (ROADMAP item 2a)"
      ~n:128 ~sched:(fun _ -> Scheduler.fifo) ~warmup:20;
    elect ~name:"elect-random"
      ~why:
        "Algorithm 2, n=128, ID_max=2n, random scheduler: O(1) pick, so queues, mailboxes and wake dominate (ROADMAP items 1 and 3)"
      ~n:128 ~sched:(fun rng -> Scheduler.random (Rng.split rng)) ~warmup:60;
    serve_closed;
    check_exhaustive;
  ]

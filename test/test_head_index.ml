(* Differential tests for the indexed FIFO-family schedulers: on every
   view an engine presents, the head-index picks of [fifo],
   [global_fifo], [bias-cw] and [bias-ccw] must equal the argmin scans
   in [Scheduler.Scan] — on the ring engine (oriented and
   non-oriented), the graph engine, and flock slots, under runs that
   mix scheduler picks with forced steps, undo, injection and replayed
   schedule prefixes. *)

open Colring_engine
module Rng = Colring_stats.Rng
module Ids = Colring_core.Ids
module Election = Colring_core.Election
module Algo3 = Colring_core.Algo3
module Gnetwork = Colring_graph.Gnetwork
module Gelection = Colring_graph.Gelection
module Topo = Colring_harness.Topo

let pairs =
  [
    (Scheduler.fifo, Scheduler.Scan.fifo);
    (Scheduler.global_fifo, Scheduler.Scan.global_fifo);
    (Scheduler.bias_direction ~cw:true, Scheduler.Scan.bias_direction ~cw:true);
    (Scheduler.bias_direction ~cw:false, Scheduler.Scan.bias_direction ~cw:false);
  ]

(* Number of views compared so far, so tests can assert they compared
   something. *)
let compared = ref 0

let agree (v : Scheduler.view) =
  incr compared;
  List.iter
    (fun ((ix : Scheduler.t), (scan : Scheduler.t)) ->
      let a = ix.pick v and b = scan.pick v in
      if a <> b then
        failwith
          (Printf.sprintf "%s: index picked link %d, scan picked %d (step %d)"
             ix.name a b v.Scheduler.step))
    pairs;
  let size = Head_index.size v.Scheduler.heads in
  if size <> v.Scheduler.count then
    failwith
      (Printf.sprintf "index holds %d links, view has %d" size
         v.Scheduler.count)

(* [drive] with every pick preceded by the index-vs-scan comparison. *)
let checked (drive : Scheduler.t) =
  {
    drive with
    Scheduler.pick =
      (fun v ->
        agree v;
        drive.Scheduler.pick v);
  }

(* The driving schedulers an op may step with.  The comparison is
   made on every one of them, so the index is exercised in states
   reached by any mix of policies. *)
let policies seed =
  [|
    Scheduler.random (Rng.create ~seed);
    Scheduler.fifo;
    Scheduler.global_fifo;
    Scheduler.bias_direction ~cw:true;
    Scheduler.bias_direction ~cw:false;
  |]

type op =
  | Step of int  (** index into [policies] *)
  | Force of int  (** the i-th enabled link, modulo the enabled count *)
  | Force_undo of int
  | Undo
  | Inject of int * bool  (** node (mod n), port P1? *)

let pp_op = function
  | Step k -> Printf.sprintf "step%d" k
  | Force i -> Printf.sprintf "force%d" i
  | Force_undo i -> Printf.sprintf "fundo%d" i
  | Undo -> "undo"
  | Inject (v, p) -> Printf.sprintf "inject%d%s" v (if p then "+" else "-")

let gen_op ~inject =
  QCheck.Gen.(
    frequency
      ([
         (6, map (fun k -> Step k) (int_bound 4));
         (2, map (fun i -> Force i) (int_bound 64));
         (3, map (fun i -> Force_undo i) (int_bound 64));
         (2, return Undo);
       ]
      @ if inject then [ (1, map2 (fun v p -> Inject (v, p)) nat bool) ] else []))

(* The engine operations an op sequence needs, so one interpreter
   serves both engines. *)
type 'u engine = {
  step : Scheduler.t -> bool;
  enabled_count : unit -> int;
  enabled_link : after:int -> int;
  force : link:int -> unit;
  force_undo : (link:int -> 'u) option;
  undo : 'u -> unit;
  inject : (int -> bool -> unit) option;
}

let nth_enabled e i =
  let k = i mod e.enabled_count () in
  let rec go l j = if j = 0 then l else go (e.enabled_link ~after:l) (j - 1) in
  go (e.enabled_link ~after:(-1)) k

let interpret e ~seed ops =
  let ds = policies seed in
  let stack = ref [] in
  List.iter
    (fun op ->
      match op with
      | Step k ->
          if e.enabled_count () > 0 then begin
            stack := [];
            ignore (e.step (checked ds.(k)))
          end
      | Force i ->
          if e.enabled_count () > 0 then begin
            stack := [];
            e.force ~link:(nth_enabled e i)
          end
      | Force_undo i -> (
          match e.force_undo with
          | Some f when e.enabled_count () > 0 ->
              stack := f ~link:(nth_enabled e i) :: !stack
          | _ -> ())
      | Undo -> (
          match !stack with
          | u :: rest ->
              e.undo u;
              stack := rest
          | [] -> ())
      | Inject (v, p) -> (
          match e.inject with
          | Some f ->
              stack := [];
              f v p
          | None -> ()))
    ops;
  (* Finish the run (bounded: injected pulses may keep it alive). *)
  let budget = ref 3_000 in
  while !budget > 0 && e.step (checked ds.(!budget mod 5)) do
    decr budget
  done

let ring_engine net n =
  {
    step = Network.step net;
    enabled_count = (fun () -> Network.enabled_count net);
    enabled_link = (fun ~after -> Network.enabled_link net ~after);
    force = (fun ~link -> Network.force_step net ~link);
    force_undo =
      (if Network.undo_capable net then
         Some (fun ~link -> Network.force_step_undo net ~link)
       else None);
    undo = Network.undo_step net;
    inject =
      Some
        (fun v p ->
          Network.inject net ~node:(v mod n)
            ~port:(if p then Port.P1 else Port.P0)
            ());
  }

let graph_engine net =
  {
    step = Gnetwork.step net;
    enabled_count = (fun () -> Gnetwork.enabled_count net);
    enabled_link = (fun ~after -> Gnetwork.enabled_link net ~after);
    force = (fun ~link -> Gnetwork.force_step net ~link);
    force_undo =
      (if Gnetwork.undo_capable net then
         Some (fun ~link -> Gnetwork.force_step_undo net ~link)
       else None);
    undo = Gnetwork.undo_step net;
    inject = None;
  }

let ring_case =
  QCheck.Gen.(
    let* algo = int_bound 2 in
    let* n = int_range 2 10 in
    let* seed = int_bound 10_000 in
    let* ops = list_size (int_range 0 120) (gen_op ~inject:true) in
    return (algo, n, seed, ops))

let ring_algorithm = function
  | 0 -> Election.Algo1
  | 1 -> Election.Algo2
  | _ -> Election.Algo3 Algo3.Improved

let print_ring_case (algo, n, seed, ops) =
  Printf.sprintf "%s n=%d seed=%d [%s]"
    (Election.algorithm_name (ring_algorithm algo))
    n seed
    (String.concat " " (List.map pp_op ops))

(* Algorithms 1 and 2 on oriented rings, Algorithm 3 on non-oriented
   ones. *)
let prop_ring =
  QCheck.Test.make ~name:"ring: index picks = scan picks" ~count:300
    (QCheck.make ~print:print_ring_case ring_case)
    (fun (algo, n, seed, ops) ->
      let rng = Rng.create ~seed in
      let algorithm = ring_algorithm algo in
      let topo =
        match algorithm with
        | Election.Algo3 _ -> Topology.random_non_oriented rng n
        | _ -> Topology.oriented n
      in
      let ids = Ids.distinct rng ~n ~id_max:(2 * n) in
      let net =
        Network.create ~seed topo (fun v ->
            Election.program_of algorithm ~id:ids.(v))
      in
      interpret (ring_engine net n) ~seed ops;
      true)

let graph_shapes = [| Topo.Theta 5; Topo.Theta 7; Topo.K4; Topo.Bowtie |]

let graph_case =
  QCheck.Gen.(
    let* shape = int_bound (Array.length graph_shapes - 1) in
    let* seed = int_bound 10_000 in
    let* ops = list_size (int_range 0 120) (gen_op ~inject:false) in
    return (shape, seed, ops))

let print_graph_case (shape, seed, ops) =
  Printf.sprintf "%s seed=%d [%s]"
    (Topo.to_string graph_shapes.(shape))
    seed
    (String.concat " " (List.map pp_op ops))

(* Walk elections on general graphs: every link reports [None], so all
   links share one class and bias degrades to global FIFO. *)
let prop_graph =
  QCheck.Test.make ~name:"graph: index picks = scan picks" ~count:150
    (QCheck.make ~print:print_graph_case graph_case)
    (fun (shape, seed, ops) ->
      let g = Topo.materialize ~default_n:6 graph_shapes.(shape) in
      let n = Colring_graph.Gtopology.n g in
      let plan = Gelection.plan g in
      let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
      let net = Gelection.make ~seed plan ~ids in
      interpret (graph_engine net) ~seed ops;
      true)

(* Whole runs picked by each indexed scheduler, pick for pick against
   the scan, at sizes where the non-empty set is large. *)
let test_full_runs () =
  compared := 0;
  List.iter
    (fun (algorithm, n) ->
      List.iter
        (fun ((ix : Scheduler.t), _) ->
          let rng = Rng.create ~seed:n in
          let topo =
            match algorithm with
            | Election.Algo3 _ -> Topology.random_non_oriented rng n
            | _ -> Topology.oriented n
          in
          let ids = Ids.distinct rng ~n ~id_max:(2 * n) in
          let net =
            Network.create topo (fun v ->
                Election.program_of algorithm ~id:ids.(v))
          in
          let r = Network.run net (checked ix) in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d %s quiescent"
               (Election.algorithm_name algorithm) n ix.Scheduler.name)
            true r.Network.quiescent)
        pairs)
    [
      (Election.Algo1, 2);
      (Election.Algo2, 3);
      (Election.Algo2, 64);
      (Election.Algo1, 128);
      (Election.Algo3 Algo3.Improved, 48);
    ];
  Alcotest.(check bool) "views compared" true (!compared > 100_000)

(* A replayed schedule prefix hands over to [fifo] mid-run: the index
   is first built from a view it never saw grow.  The handover run
   must equal the same replay finished by the scan. *)
let test_schedule_handover () =
  List.iter
    (fun (n, prefix_len, seed) ->
      let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
      let make () =
        Network.create ~seed (Topology.oriented n) (fun v ->
            Election.program_of Election.Algo2 ~id:ids.(v))
      in
      let net = make () in
      let recording, recorded =
        Transport.recording (Scheduler.random (Rng.create ~seed))
      in
      for _ = 1 to prefix_len do
        ignore (Network.step net recording)
      done;
      let prefix = recorded () in
      let finish after =
        let net = make () in
        let r = Network.run net (Scheduler.of_schedule prefix ~after) in
        (r, Metrics.to_assoc (Network.metrics net), Network.outputs net)
      in
      let indexed = finish (checked Scheduler.fifo) in
      let scanned = finish Scheduler.Scan.fifo in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d prefix=%d: same run" n prefix_len)
        true (indexed = scanned))
    [ (4, 0, 1); (8, 17, 2); (16, 200, 3); (32, 1000, 4) ]

(* Flock slots: each slot owns an index, and reloading a slot must
   drop it.  Three waves through two slots, with the comparison on
   every pick; the first wave runs out of budget mid-run, so its slots
   are reloaded with pulses still in flight. *)
let test_flock_slots () =
  compared := 0;
  let n = 12 in
  let topo = Topology.oriented n in
  let flock = Flock.create ~slots:2 topo in
  for wave = 0 to 2 do
    for slot = 0 to 1 do
      let seed = (wave * 2) + slot + 1 in
      let ids = Ids.distinct (Rng.create ~seed) ~n ~id_max:(2 * n) in
      let ds = policies seed in
      let drive = ds.(((wave * 2) + slot) mod Array.length ds) in
      let max_deliveries = if wave = 0 then 150 else 1_000_000 in
      Flock.load flock ~slot ~max_deliveries ~sched:(checked drive) (fun v ->
          Election.program_of Election.Algo2 ~id:ids.(v))
    done;
    Flock.drain ~batch:7 flock;
    for slot = 0 to 1 do
      Alcotest.(check bool)
        (Printf.sprintf "wave %d slot %d finished as budgeted" wave slot)
        true
        (if wave = 0 then Flock.exhausted flock slot
         else Flock.quiescent flock slot && Flock.all_terminated flock slot);
      Flock.release flock slot
    done
  done;
  Alcotest.(check bool) "views compared" true (!compared > 1_000)

(* A hand-built view picked once: the index builds itself from the
   buffer and agrees with the scan, including mixed direction
   classes. *)
let test_hand_built_view () =
  let view links =
    {
      Scheduler.nonempty = Array.copy links;
      count = Array.length links;
      head_seq = (fun l -> (l * 7919) mod 1009);
      head_batch = (fun l -> (l * 7919) mod 1009 / 5);
      travels_cw =
        (fun l ->
          match l mod 3 with 0 -> Some true | 1 -> Some false | _ -> None);
      dst_node = (fun _ -> 0);
      step = 0;
      heads = Head_index.create ~links:64;
    }
  in
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 500 do
    let k = 1 + Rng.int rng 40 in
    let links = Array.init 64 Fun.id in
    for i = 63 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = links.(i) in
      links.(i) <- links.(j);
      links.(j) <- x
    done;
    let links = Array.sub links 0 k in
    List.iter
      (fun ((ix : Scheduler.t), (scan : Scheduler.t)) ->
        Alcotest.(check int) ix.Scheduler.name (scan.pick (view links))
          (ix.pick (view links)))
      pairs
  done

let () =
  Alcotest.run "colring-head-index"
    [
      ( "differential",
        [
          Alcotest.test_case "full runs" `Quick test_full_runs;
          Alcotest.test_case "schedule prefix hands over" `Quick
            test_schedule_handover;
          Alcotest.test_case "flock slots" `Quick test_flock_slots;
          Alcotest.test_case "hand-built views" `Quick test_hand_built_view;
          QCheck_alcotest.to_alcotest prop_ring;
          QCheck_alcotest.to_alcotest prop_graph;
        ] );
    ]

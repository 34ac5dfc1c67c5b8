(* Batched-determinism tests: a flock-run job's journal and report are
   byte-identical to what a sequential Election.run produces for the
   same inputs — for every pool width and both pool modes.  This is
   the contract that makes `colring batch` a drop-in for a loop of
   `colring elect` calls. *)

module Election = Colring_core.Election
module Batch = Colring_harness.Batch
module Pool = Colring_runtime.Pool
module Topology = Colring_engine.Topology
module Scheduler = Colring_engine.Scheduler
module Sink = Colring_engine.Sink
module Rng = Colring_stats.Rng

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let sched seed = Scheduler.random (Rng.create ~seed)

let oriented (s : Batch.spec) =
  match s.algorithm with
  | Election.Algo1 | Election.Algo2 -> true
  | Election.Algo3 _ | Election.Algo3_resample -> false

(* The topology Batch uses: oriented, or the shared scramble drawn
   from the ring size (a batch is many elections on the same ring). *)
let topology_of (s : Batch.spec) =
  if oriented s then Topology.oriented s.n
  else Topology.random_non_oriented (Rng.create ~seed:s.n) s.n

let sequential_journal ?(events = false) ?(sched = sched) (s : Batch.spec) =
  let b = Buffer.create 256 in
  ignore
    (Election.run_report ~seed:s.seed
       ~sink:(Sink.jsonl_buffer ~events b)
       s.algorithm ~topo:(topology_of s) ~ids:(Batch.ids_of_spec s)
       ~sched:(sched s.seed));
  Buffer.contents b

let batch_journals ?(jobs = 1) ?(mode = Pool.Static) ?slots ?events
    ?(sched = sched) specs =
  let chunks = Array.make (Array.length specs) "" in
  ignore
    (Batch.run ~jobs ~mode ?slots ?events
       ~journal:(fun i chunk -> chunks.(i) <- chunk)
       ~sched specs);
  chunks

let spec algorithm n seed = { Batch.algorithm; n; seed; id_max = 2 * n }

let check_byte_identical ?(sched = sched) specs =
  let expected = Array.map (fun s -> sequential_journal ~sched s) specs in
  List.iter
    (fun (mode, mode_name) ->
      List.iter
        (fun jobs ->
          let got = batch_journals ~jobs ~mode ~sched specs in
          Array.iteri
            (fun i chunk ->
              checks
                (Printf.sprintf "job %d (%s -j%d)" i mode_name jobs)
                expected.(i) chunk)
            got)
        [ 1; 2; 4 ])
    [ (Pool.Static, "static"); (Pool.Steal, "steal") ]

let test_oriented_journals () =
  check_byte_identical
    (Array.init 9 (fun i -> spec Election.Algo2 8 (i + 1)))

let test_non_oriented_journals () =
  (* The resample path is the one that reads per-node RNG streams, so
     it pins the stream-splitting convention too. *)
  check_byte_identical
    (Array.init 6 (fun i -> spec Election.Algo3_resample 6 (i + 1)))

(* Flock's default scheduler is [fifo], and the FIFO family reads a
   per-slot head index that a reloaded slot must rebuild: pin the
   same byte-identity under the deterministic FIFO-family schedulers,
   over two waves of reloads. *)
let test_fifo_family_journals () =
  List.iter
    (fun (s : Scheduler.t) ->
      let sched _ = s in
      check_byte_identical ~sched
        (Array.init 5 (fun i -> spec Election.Algo2 8 (i + 1)));
      check_byte_identical ~sched
        (Array.init 3 (fun i -> spec Election.Algo3_resample 6 (i + 1)));
      let specs = Array.init 5 (fun i -> spec Election.Algo2 6 (i + 21)) in
      let expected = Array.map (fun s -> sequential_journal ~sched s) specs in
      let got = batch_journals ~jobs:1 ~slots:2 ~sched specs in
      Array.iteri
        (fun i chunk ->
          checks
            (Printf.sprintf "%s wave job %d" s.Scheduler.name i)
            expected.(i) chunk)
        got)
    [ Scheduler.fifo; Scheduler.global_fifo; Scheduler.bias_direction ~cw:false ]

let test_event_journals () =
  (* Full per-event records, not just snapshots. *)
  let specs = Array.init 4 (fun i -> spec Election.Algo2 5 (i + 11)) in
  let expected = Array.map (fun s -> sequential_journal ~events:true s) specs in
  let got =
    batch_journals ~jobs:2 ~mode:Pool.Steal ~events:true specs
  in
  Array.iteri
    (fun i chunk -> checks (Printf.sprintf "job %d" i) expected.(i) chunk)
    got

let test_wave_split_is_invisible () =
  (* slots smaller than the batch forces several waves through one
     warm flock; reloading slots must not leak state across waves. *)
  let specs = Array.init 7 (fun i -> spec Election.Algo2 6 (i + 1)) in
  let expected = Array.map (fun s -> sequential_journal s) specs in
  let got = batch_journals ~jobs:2 ~slots:2 specs in
  Array.iteri
    (fun i chunk -> checks (Printf.sprintf "job %d" i) expected.(i) chunk)
    got

let test_mixed_batch_reports () =
  (* Mixed algorithms and ring sizes in one batch: reports land in
     spec order and equal the sequential reports field-for-field. *)
  let specs =
    [|
      spec Election.Algo2 8 1;
      spec Election.Algo3_resample 5 2;
      spec Election.Algo2 4 3;
      spec (Election.Algo3 Colring_core.Algo3.Improved) 5 4;
      spec Election.Algo2 8 5;
    |]
  in
  let expected =
    Array.map
      (fun s ->
        Election.run_report ~seed:s.Batch.seed s.Batch.algorithm
          ~topo:(topology_of s) ~ids:(Batch.ids_of_spec s)
          ~sched:(sched s.Batch.seed))
      specs
  in
  List.iter
    (fun jobs ->
      let outcome = Batch.run ~jobs ~sched specs in
      Array.iteri
        (fun i r ->
          checkb
            (Printf.sprintf "report %d at -j%d" i jobs)
            true
            (expected.(i) = r);
          checkb (Printf.sprintf "ok %d" i) true (Election.ok r))
        outcome.Batch.reports)
    [ 1; 4 ]

let test_snapshot_cadence_and_exhaustion () =
  (* Non-default snapshot cadence and a budget that exhausts mid-run
     flow through run_flock unchanged: journal and exhausted flag
     match the sequential run exactly. *)
  let n = 8 and seed = 3 in
  let ids = Batch.ids_of_spec (spec Election.Algo2 n seed) in
  let topo = Topology.oriented n in
  let journal_of run =
    let b = Buffer.create 256 in
    let r = run (Sink.jsonl_buffer b) in
    (Buffer.contents b, r)
  in
  let seq, seq_r =
    journal_of (fun sink ->
        Election.run_report ~seed ~max_deliveries:100 ~snapshot_every:7
          ~sink Election.Algo2 ~topo ~ids ~sched:(sched seed))
  in
  let flocked, flock_r =
    journal_of (fun sink ->
        let job =
          Election.job ~seed ~max_deliveries:100 ~snapshot_every:7 ~sink
            Election.Algo2 ~ids ~sched:(sched seed)
        in
        (Election.run_flock ~topo [| job |]).(0))
  in
  checkb "run exhausted" true seq_r.Election.exhausted;
  checkb "flock report matches" true (seq_r = flock_r);
  checks "journal" seq flocked

let test_parse_line () =
  let ok = function Ok (Some s) -> Some s | _ -> None in
  (match ok (Batch.parse_line "algo2 8 42") with
  | Some s ->
      checkb "algo" true (s.Batch.algorithm = Election.Algo2);
      Alcotest.(check int) "n" 8 s.Batch.n;
      Alcotest.(check int) "seed" 42 s.Batch.seed;
      Alcotest.(check int) "id_max defaults to 2n" 16 s.Batch.id_max
  | None -> Alcotest.fail "valid line rejected");
  (match ok (Batch.parse_line "resample 6 1 9") with
  | Some s -> Alcotest.(check int) "explicit id_max" 9 s.Batch.id_max
  | None -> Alcotest.fail "valid line rejected");
  checkb "blank" true (Batch.parse_line "" = Ok None);
  checkb "comment" true (Batch.parse_line "  # algo2 8 1" = Ok None);
  checkb "trailing comment" true
    (match Batch.parse_line "algo2 8 1 # why" with
    | Ok (Some _) -> true
    | _ -> false);
  let err l =
    match Batch.parse_line l with Error _ -> true | Ok _ -> false
  in
  checkb "unknown algo" true (err "bogus 8 1");
  checkb "n too small" true (err "algo2 1 1");
  checkb "id_max < n" true (err "algo2 8 1 7");
  checkb "non-integer" true (err "algo2 eight 1");
  checkb "too few fields" true (err "algo2 8");
  checkb "too many fields" true (err "algo2 8 1 16 extra")

let test_parse_spec_line_numbers () =
  (match Batch.parse_spec "algo2 8 1\n\n# c\nresample 6 2\n" with
  | Ok specs -> Alcotest.(check int) "count" 2 (Array.length specs)
  | Error msg -> Alcotest.failf "rejected: %s" msg);
  match Batch.parse_spec "algo2 8 1\nbogus 4 1\n" with
  | Error msg ->
      checkb "1-based line number" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")
  | Ok _ -> Alcotest.fail "bad line accepted"

let () =
  Alcotest.run "colring-flock"
    [
      ( "determinism",
        [
          Alcotest.test_case "oriented journals byte-identical" `Quick
            test_oriented_journals;
          Alcotest.test_case "non-oriented journals byte-identical" `Quick
            test_non_oriented_journals;
          Alcotest.test_case "fifo-family journals byte-identical" `Quick
            test_fifo_family_journals;
          Alcotest.test_case "event journals byte-identical" `Quick
            test_event_journals;
          Alcotest.test_case "wave split is invisible" `Quick
            test_wave_split_is_invisible;
          Alcotest.test_case "mixed batch reports" `Quick
            test_mixed_batch_reports;
          Alcotest.test_case "snapshot cadence and exhaustion" `Quick
            test_snapshot_cadence_and_exhaustion;
        ] );
      ( "spec parsing",
        [
          Alcotest.test_case "parse_line" `Quick test_parse_line;
          Alcotest.test_case "parse_spec line numbers" `Quick
            test_parse_spec_line_numbers;
        ] );
    ]

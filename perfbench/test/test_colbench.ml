(* Tests for the benchmark's own arithmetic and output shape: the
   nearest-rank percentile and its sample-count rule, self time, the
   host-slowdown window, the result line as Bench_io reads it,
   BENCHMARK.json against the metric names the code emits, and one op
   of every workload. *)

open Colbench

let check name cond = Alcotest.(check bool) name true cond

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let percentiles () =
  let upto n = Array.init n (fun i -> float_of_int (i + 1)) in
  let t = Measure.tail (upto 100) ~pct:90 in
  check "p90 of 1..100" (t.value = 90. && t.samples = 100 && t.beyond = 10);
  check "10 beyond is reportable" (Measure.reportable t);
  let t = Measure.tail (upto 99) ~pct:90 in
  check "p90 of 1..99" (t.value = 90. && t.beyond = 9);
  check "9 beyond is refused" (not (Measure.reportable t));
  check "median of odd count" (Measure.median [| 3.; 1.; 2. |] = 2.);
  check "median of even count is the lower middle" (Measure.median [| 4.; 1.; 3.; 2. |] = 2.);
  check "input left unsorted" (let xs = [| 2.; 1. |] in ignore (Measure.median xs); xs = [| 2.; 1. |]);
  let t = Measure.tail (Array.make 50 7.) ~pct:90 in
  check "ties are not beyond" (t.value = 7. && t.beyond = 0);
  check "p100 is the max" ((Measure.tail (upto 20) ~pct:100).value = 20.);
  check "empty refused" (raises (fun () -> Measure.tail [||] ~pct:50));
  check "pct 0 refused" (raises (fun () -> Measure.tail [| 1. |] ~pct:0));
  check "pct 101 refused" (raises (fun () -> Measure.tail [| 1. |] ~pct:101))

let self_times () =
  check "no children" (Measure.self_time ~start:0 ~stop:100 [] = 100);
  check "disjoint children" (Measure.self_time ~start:0 ~stop:100 [ (10, 20); (30, 50) ] = 70);
  check "children filling the span" (Measure.self_time ~start:0 ~stop:100 [ (0, 60); (60, 100) ] = 0);
  let span =
    {
      Spans.id = 0;
      parent = None;
      op = 0;
      name = "run";
      start = 1_000;
      stop = 2_000;
      kids = [ (1_100, 1_300); (1_500, 1_600) ];
      counters = [ { Spans.c_name = "pick"; ns = 150; calls = 3; sum = 9 } ];
    }
  in
  check "span self time subtracts kids and counters" (Spans.self_ns span = 1_000 - 300 - 150);
  let sp = Spans.create () in
  let o = Spans.enter sp ~op:4 "op" in
  let k = Spans.enter sp ~op:4 ~parent:o "build" in
  Spans.leave k;
  Spans.leave o;
  check "recorded kid is subtracted" (Spans.self_ns o = Spans.duration o - Spans.duration k);
  check "find by name" (List.map (fun s -> s.Spans.op) (Spans.find sp "build") = [ 4 ])

(* The probe window clips at both ends of the probe record. *)
let host_slowdown () =
  let h = Measure.host () in
  let ok s = Float.is_finite s && s > 0. in
  check "two probes at start" (Measure.mark h = 2);
  check "before the first probe" (ok (Measure.slowdown h 0));
  check "after the last probe" (ok (Measure.slowdown h (Measure.mark h)));
  Measure.probe h;
  check "probe counted" (Measure.mark h = 3)

let member k v = Option.get (Bench_io.member k v)

let result_shape () =
  let metrics = List.map (fun (name, unit) -> (name, Report.metric 1.25e-5 unit)) Report.end_to_end in
  let line = Report.result_line ~attempted:12 ~failed:0 metrics in
  check "one line" (not (String.contains line '\n'));
  match Bench_io.of_string line with
  | Bench_io.Obj fields as v ->
      check "exactly the four keys"
        (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]);
      check "correct" (member "correct" v = Bench_io.Bool true);
      check "attempted" (member "attempted" v = Bench_io.Int 12);
      (match member "metrics" v with
      | Bench_io.Obj ms ->
          check "every end-to-end metric" (List.map fst ms = List.map fst Report.end_to_end);
          List.iter
            (fun (name, m) ->
              check (name ^ " value") (Bench_io.get_float (member "value" m) = Some 1.25e-5);
              check (name ^ " unit")
                (Bench_io.get_string (member "unit" m) = Some (List.assoc name Report.end_to_end)))
            ms
      | _ -> check "metrics is an object" false);
      check "failure clears correct"
        (member "correct" (Bench_io.of_string (Report.result_line ~attempted:3 ~failed:1 []))
        = Bench_io.Bool false)
  | _ -> check "result is an object" false

let names_units key v =
  List.map
    (fun m ->
      (Option.get (Bench_io.get_string (member "name" m)), Option.get (Bench_io.get_string (member "unit" m))))
    (Option.get (Bench_io.get_list (member key v)))

let benchmark_json () =
  let v = Bench_io.read_file "../../BENCHMARK.json" in
  check "end_to_end matches Report" (names_units "end_to_end" v = Report.end_to_end);
  check "per_layer matches Workloads" (names_units "per_layer" v = Workloads.per_layer);
  check "workloads match, with their reasons"
    (List.map
       (fun w ->
         ( Option.get (Bench_io.get_string (member "name" w)),
           Option.get (Bench_io.get_string (member "why" w)) ))
       (Option.get (Bench_io.get_list (member "workloads" v)))
    = List.map (fun w -> (w.Workloads.name, w.Workloads.why)) Workloads.all)

(* One untraced and one traced op of each workload: both pass their
   checks and every layer metric a workload reports is a declared one. *)
let workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      let inst = w.Workloads.make ~seed:7 in
      let r = inst.Workloads.op 0 in
      check (w.name ^ " op") r.Workloads.ok;
      let sp = Spans.create () in
      check (w.name ^ " traced op") (inst.Workloads.traced sp 1).Workloads.ok;
      let layers = inst.Workloads.layers sp ~untraced_ns:1e6 in
      check (w.name ^ " reports layers") (layers <> []);
      List.iter
        (fun (name, v) ->
          check (w.name ^ " declares " ^ name) (List.mem_assoc name Workloads.per_layer);
          check (w.name ^ " " ^ name ^ " finite") (Float.is_finite v))
        layers)
    Workloads.all

let () =
  Alcotest.run "colbench"
    [
      ( "measure",
        [
          Alcotest.test_case "percentile and sample-count rule" `Quick percentiles;
          Alcotest.test_case "self time" `Quick self_times;
          Alcotest.test_case "host slowdown window" `Quick host_slowdown;
        ] );
      ( "output",
        [
          Alcotest.test_case "result line parses with Bench_io" `Quick result_shape;
          Alcotest.test_case "BENCHMARK.json names the emitted metrics" `Quick benchmark_json;
        ] );
      ("workloads", [ Alcotest.test_case "one checked op of each" `Slow workloads ]);
    ]

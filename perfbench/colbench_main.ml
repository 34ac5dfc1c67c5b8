(* colbench: run one workload of the colring benchmark in this process.

     colbench_main --workload NAME --seed N --seconds S --trace 0|1

   A single-domain closed-loop load generator.  It builds the
   workload, runs a fixed number of warm-up ops and reads peak RSS,
   then runs ops back to back for S seconds.  Spread evenly through
   that phase, it sets the workload up [setup_reps] times, each in a
   fresh domain (so per-domain caches start cold) and each timed from
   the start of input building to the end of its first op; set-up time
   is not op time.

   Times are taken on the calling domain's CPU clock, which leaves out
   time the hypervisor gave to other guests, and divided by the host's
   slowdown around them (Measure.slowdown: a fixed probe computation
   timed every 50 ms of op time), so that they read as at reference
   speed.
   On the shared 2-vCPU host the benchmark was built on, the speed of
   identical work moves by up to 1.5x over seconds to minutes; raw
   wall-clock figures are printed too, but not reported.

   With --trace 0 it reports the end-to-end metrics; with --trace 1 it
   alternates untraced and traced ops, reports the per-layer metrics
   and writes the spans to _colbench/.  Every op's output is checked.
   The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Exit 0 only when
   every op passed and every metric could be reported. *)

open Colbench

let setup_reps = 15

(* Probe the host's speed after every this much op CPU time: its speed
   can change within a second. *)
let probe_every_ns = 50_000_000

let usage =
  "colbench_main --workload NAME --seed N --seconds S --trace 0|1\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("colbench: " ^ msg); exit 2) fmt

type tally = { mutable attempted : int; mutable failed : int }

let count tally (r : Workloads.result) =
  tally.attempted <- tally.attempted + 1;
  if not r.Workloads.ok then tally.failed <- tally.failed + 1

(* [f ()] with its wall time and the calling domain's CPU time, in ns. *)
let timed f =
  let t0 = Measure.now_ns () and c0 = Measure.cpu_ns () in
  let r = f () in
  let c1 = Measure.cpu_ns () in
  (r, Measure.now_ns () - t0, c1 - c0)

(* Set-up: building inputs plus the first (cold) op, in a fresh domain,
   from a fully collected heap as a fresh process would start; the
   collection itself is not timed.  Returns the set-up domain's CPU
   time. *)
let set_up (w : Workloads.t) ~seed () =
  Gc.full_major ();
  Domain.join
    (Domain.spawn (fun () ->
         let r, _, cpu = timed (fun () -> (w.Workloads.make ~seed).Workloads.op 0) in
         (r, cpu)))

(* Ops [first], [first + 1], ... ([f i] runs op [i] and returns its CPU
   time) for [seconds] of wall time, with set-up [k] run once
   [k / setup_reps] of that time has passed and the host probed after
   every [probe_every_ns] of op CPU time, and twice at the end.  Set-up
   wall time is not counted in the [seconds].  Returns the set-up times
   at reference speed and the phase's wall time, in ns. *)
let phase ~seconds ~host ~set_up ~first f =
  let budget = seconds * 1_000_000_000 in
  let t0 = Measure.now_ns () in
  let setups = ref [] and paused = ref 0 and i = ref first and since_probe = ref 0 in
  let busy () = Measure.now_ns () - t0 - !paused in
  let setup () =
    let w0 = Measure.now_ns () and mark = Measure.mark host in
    let cpu = set_up () in
    setups := (mark, cpu) :: !setups;
    paused := !paused + (Measure.now_ns () - w0)
  in
  while busy () < budget do
    if List.length !setups < setup_reps && busy () >= List.length !setups * budget / setup_reps
    then setup ()
    else begin
      since_probe := !since_probe + f !i;
      incr i;
      if !since_probe >= probe_every_ns then begin
        Measure.probe host;
        since_probe := 0
      end
    end
  done;
  let wall = busy () in
  while List.length !setups < setup_reps do
    setup ()
  done;
  Measure.probe host;
  Measure.probe host;
  let at_reference (mark, cpu) = float_of_int cpu /. Measure.slowdown host mark in
  (Array.of_list (List.rev_map at_reference !setups), wall)

let line name value unit note = Printf.printf "%-34s %14.6g %-6s %s\n" name value unit note

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase (>= 1)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> die "unexpected argument %S" a)
    usage;
  let w =
    match List.find_opt (fun w -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None -> die "unknown workload %S\n%s" !workload usage
  in
  if !seed < 0 then die "--seed must be >= 0";
  if !seconds < 1 then die "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let tags =
    Bench_io.Obj
      [
        ("workload", Bench_io.String w.Workloads.name);
        ("seed", Bench_io.Int seed);
        ("seconds", Bench_io.Int seconds);
        ("trace", Bench_io.Bool traced);
        ("nproc", Bench_io.Int (Domain.recommended_domain_count ()));
        ("ocaml", Bench_io.String Sys.ocaml_version);
        ("commit", Bench_io.String (Option.value ~default:"unknown" (Sys.getenv_opt "COLBENCH_COMMIT")));
        ("load_domains", Bench_io.Int w.Workloads.domains);
        ("gc", Bench_io.String "default");
      ]
  in
  Printf.printf "# %s: %s\n# tags %s\n%!" w.Workloads.name w.Workloads.why (Json.to_string tags);
  let tally = { attempted = 0; failed = 0 } in
  let set_up () =
    let r, cpu = set_up w ~seed () in
    count tally r;
    cpu
  in
  let inst = w.Workloads.make ~seed in
  count tally (inst.Workloads.op 0);
  for i = 1 to w.Workloads.warmup do
    count tally (inst.Workloads.op i)
  done;
  let rss = Measure.peak_rss_mb () in
  let first = w.Workloads.warmup + 1 in
  let host = Measure.host () in
  (* Per untraced op: wall time, and CPU time with the probe mark it
     started at. *)
  let walls = ref [] and cpus = ref [] in
  let run_untraced i =
    let mark = Measure.mark host in
    let r, wall, cpu = timed (fun () -> inst.Workloads.op i) in
    count tally r;
    walls := float_of_int wall :: !walls;
    cpus := (mark, cpu) :: !cpus;
    (r, cpu)
  in
  let metrics =
    if not traced then begin
      let setups, wall = phase ~seconds ~host ~set_up ~first (fun i -> snd (run_untraced i)) in
      let cpus = Array.of_list !cpus and walls = Array.of_list !walls in
      let slowdowns = Array.map (fun (mark, _) -> Measure.slowdown host mark) cpus in
      let lat = Array.map2 (fun (_, cpu) s -> float_of_int cpu /. s) cpus slowdowns in
      let n = Array.length lat in
      let p50 = Measure.tail lat ~pct:50 and p90 = Measure.tail lat ~pct:90 in
      let ops_per_s = float_of_int n /. (Array.fold_left ( +. ) 0. lat /. 1e9) in
      let ms ns = ns /. 1e6 in
      let tail_note (t : Measure.tail) = Printf.sprintf "(%d samples, %d beyond)" t.samples t.beyond in
      line "setup_s" (Measure.median setups /. 1e9) "s"
        (Printf.sprintf "(median of %d set-ups: inputs + first cold op)" setup_reps);
      line "ops_per_s" ops_per_s "1/s" (Printf.sprintf "(%d ops)" n);
      line "latency_p50_ms" (ms p50.value) "ms" (tail_note p50);
      line "latency_p90_ms" (ms p90.value) "ms" (tail_note p90);
      line "peak_rss_mb" rss "MB" (Printf.sprintf "(VmHWM after set-up and %d warm-up ops)" w.Workloads.warmup);
      print_endline "# raw wall-clock figures, not scaled to reference speed:";
      line "wall.ops_per_s" (float_of_int n /. (float_of_int wall /. 1e9)) "1/s"
        (Printf.sprintf "(%d ops in %.3f s)" n (float_of_int wall /. 1e9));
      line "wall.latency_p50_ms" (ms (Measure.median walls)) "ms" "";
      line "wall.latency_p90_ms" (ms (Measure.tail walls ~pct:90).value) "ms" "";
      line "host.slowdown" (Measure.median slowdowns) "ratio"
        "(median over ops: probe time / reference probe time)";
      if not (Measure.reportable p90) then begin
        Printf.eprintf
          "colbench: refusing latency_p90_ms: %d samples beyond it, need %d (lengthen --seconds)\n"
          p90.beyond Measure.min_beyond;
        exit 1
      end;
      let values =
        [
          ("setup_s", Measure.median setups /. 1e9);
          ("ops_per_s", ops_per_s);
          ("latency_p90_ms", ms p90.value);
          ("peak_rss_mb", rss);
        ]
      in
      List.map (fun (name, unit) -> (name, Report.metric (List.assoc name values) unit)) Report.end_to_end
    end
    else begin
      let sp = Spans.create () in
      let words = ref 0. and deliveries = ref 0 in
      let _ =
        phase ~seconds ~host ~set_up ~first (fun i ->
            let w0 = Gc.minor_words () in
            let r, cpu = run_untraced i in
            (* Counts from the first timed op only, so they repeat
               exactly per seed. *)
            if i = first then begin
              words := Gc.minor_words () -. w0;
              deliveries := r.Workloads.deliveries
            end;
            count tally (inst.Workloads.traced sp i);
            cpu)
      in
      let untraced_ns = Measure.median (Array.of_list !walls) in
      let counts =
        [
          ("engine.deliveries_per_op", float_of_int !deliveries);
          ( "engine.minor_words_per_delivery",
            if !deliveries = 0 then 0. else !words /. float_of_int !deliveries );
        ]
      in
      let measured = counts @ inst.Workloads.layers sp ~untraced_ns in
      (try Sys.mkdir "_colbench" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "_colbench/spans-%s-seed%d.jsonl" w.Workloads.name seed in
      let oc = open_out path in
      output_string oc (Json.to_string tags ^ "\n");
      Spans.write sp oc;
      close_out oc;
      Printf.printf "# spans: %s (%d untraced, %d traced ops)\n" path (List.length !walls)
        (List.length (Spans.find sp "op"));
      List.map
        (fun (name, unit) ->
          let value, note =
            match List.assoc_opt name measured with
            | Some v -> (v, "")
            | None -> (0., "(layer not entered by this workload)")
          in
          line name value unit note;
          (name, Report.metric value unit))
        Workloads.per_layer
    end
  in
  line "failed_ratio"
    (float_of_int tally.failed /. float_of_int tally.attempted)
    "ratio"
    (Printf.sprintf "(%d of %d ops failed)" tally.failed tally.attempted);
  print_endline (Report.result_line ~attempted:tally.attempted ~failed:tally.failed metrics);
  exit (if tally.failed = 0 then 0 else 1)

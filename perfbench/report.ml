let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("latency_p90_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let metric value unit = Bench_io.Obj [ ("value", Bench_io.Float value); ("unit", Bench_io.String unit) ]

let result_line ~attempted ~failed metrics =
  Json.to_string
    (Bench_io.Obj
       [
         ("correct", Bench_io.Bool (failed = 0));
         ("attempted", Bench_io.Int attempted);
         ("failed", Bench_io.Int failed);
         ("metrics", Bench_io.Obj metrics);
       ])

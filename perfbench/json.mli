(** Single-line JSON for the benchmark's result and span records.

    [Bench_io.to_string] indents over many lines and keeps six
    significant digits; a result line must be one line and carry every
    digit of a measurement. *)

val to_string : Bench_io.t -> string
(** Compact JSON on one line.  Floats keep all 17 significant digits
    (and a [.0] when integral, so they read back as floats);
    [Invalid_argument] on a NaN or infinite float, which JSON cannot
    carry. *)

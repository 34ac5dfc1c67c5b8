(* Shared command-line validation.  Every colring entry point (the
   cmdliner driver, the bench runner) funnels its numeric flags through
   these checks so `-j 0`, `-n -3` and `--max-deliveries 0` fail the
   same way everywhere: a one-line message naming the flag, not a
   backtrace from deep inside a pool or topology constructor. *)

let err flag v what = Error (Printf.sprintf "%s %d: %s" flag v what)

let positive ~flag v =
  if v >= 1 then Ok v else err flag v "must be at least 1"

let non_negative ~flag v =
  if v >= 0 then Ok v else err flag v "must not be negative"

let ring_size ~flag v =
  if v >= 2 then Ok v else err flag v "ring size must be at least 2"

let jobs ~flag = function
  | None -> Ok (Colring_runtime.Pool.default_jobs ())
  | Some v -> positive ~flag v

type scheduler = { name : string; make : seed:int -> Colring_engine.Scheduler.t }

let schedulers =
  let module S = Colring_engine.Scheduler in
  [
    ("random", fun ~seed -> S.random (Colring_stats.Rng.create ~seed));
    ("fifo", fun ~seed:_ -> S.fifo);
    ("global-fifo", fun ~seed:_ -> S.global_fifo);
    ("lifo", fun ~seed:_ -> S.lifo);
    ("round-robin", fun ~seed:_ -> S.round_robin ());
    ("bias-cw", fun ~seed:_ -> S.bias_direction ~cw:true);
    ("bias-ccw", fun ~seed:_ -> S.bias_direction ~cw:false);
  ]

let scheduler_names = List.map fst schedulers

let scheduler ~flag name =
  match List.assoc_opt name schedulers with
  | Some make -> Ok { name; make }
  | None ->
      Error
        (Printf.sprintf "%s %s: unknown scheduler (expected one of %s)" flag
           name
           (String.concat ", " scheduler_names))

let exit_or ~cmd = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 2

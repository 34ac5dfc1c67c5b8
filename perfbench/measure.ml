let now_ns () = Int64.to_int (Monotonic_clock.now ())

external cpu_ns : unit -> int = "colbench_cpu_ns" [@@noalloc]

let scan = Array.init 256 (fun i -> (i * 7919) land 1023)
let walk = Array.init 32768 (fun i -> i)

(* The probe's three loops: the argmin shape of a fifo pick,
   pointer-sized loads over an L2-sized array, and 60k words of
   short-lived allocation, the minor-heap traffic of colring's ops.
   On the host the benchmark was built on, the first two alone tracked
   the ops' speed within one load pattern of the other guests but not
   across patterns; the allocation loop follows the ops further. *)
let probe_loops () =
  let best = ref max_int and s = ref 0 and j = ref 0 in
  for _ = 1 to 500 do
    for k = 0 to 255 do
      let v = Array.unsafe_get scan k in
      if v < !best then best := v
    done
  done;
  for _ = 1 to 65536 do
    j := ((!j * 1103515245) + 12345) land 32767;
    s := !s + Array.unsafe_get walk !j
  done;
  let l = ref [] in
  for i = 1 to 20_000 do
    l := i :: !l
  done;
  ignore (Sys.opaque_identity (!best + !s, !l))

(* About the probe's median CPU time on the VM the benchmark was tuned on. *)
let probe_ref_ns = 400_000.

type host = { mutable times : float array; mutable count : int }

let probe h =
  (* Empty the minor heap, so that no collection (whose cost would
     depend on the program's live data) runs inside the probe; then
     warm the arrays, so the timed pass does not depend on how much of
     the cache the program's last op evicted. *)
  Gc.minor ();
  probe_loops ();
  let t0 = cpu_ns () in
  probe_loops ();
  let t = float_of_int (cpu_ns () - t0) in
  if h.count = Array.length h.times then h.times <- Array.append h.times h.times;
  h.times.(h.count) <- t;
  h.count <- h.count + 1

let host () =
  let h = { times = Array.make 64 0.; count = 0 } in
  probe h;
  probe h;
  h

let mark h = h.count

type tail = { value : float; samples : int; beyond : int }

let tail xs ~pct =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Measure.tail: no samples";
  if pct < 1 || pct > 100 then invalid_arg "Measure.tail: pct outside [1, 100]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  (* Integer ceiling of pct * n / 100: no float rounding at the rank. *)
  let rank = ((pct * n) + 99) / 100 in
  let value = sorted.(rank - 1) in
  let beyond = Array.fold_left (fun k x -> if x > value then k + 1 else k) 0 sorted in
  { value; samples = n; beyond }

let min_beyond = 10
let reportable t = t.beyond >= min_beyond
let median xs = (tail xs ~pct:50).value
let slowdown h mark =
  let lo = max 0 (mark - 2) and hi = min h.count (mark + 2) in
  median (Array.sub h.times lo (hi - lo)) /. probe_ref_ns

let self_time ~start ~stop children =
  List.fold_left (fun self (a, b) -> self - (b - a)) (stop - start) children

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

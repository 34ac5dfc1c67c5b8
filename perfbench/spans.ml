type counter = {
  c_name : string;
  mutable ns : int;
  mutable calls : int;
  mutable sum : int;
}

let counter c_name = { c_name; ns = 0; calls = 0; sum = 0 }

type span = {
  id : int;
  parent : span option;
  op : int;
  name : string;
  start : int;
  mutable stop : int;
  mutable kids : (int * int) list;
  mutable counters : counter list;
}

type t = { mutable rev : span list; mutable next : int }

let create () = { rev = []; next = 0 }

let enter t ~op ?parent name =
  let s =
    {
      id = t.next;
      parent;
      op;
      name;
      start = Measure.now_ns ();
      stop = -1;
      kids = [];
      counters = [];
    }
  in
  t.next <- t.next + 1;
  t.rev <- s :: t.rev;
  s

let leave ?(counters = []) s =
  s.stop <- Measure.now_ns ();
  s.counters <- counters;
  Option.iter (fun p -> p.kids <- (s.start, s.stop) :: p.kids) s.parent

let duration s = s.stop - s.start

let self_ns s =
  Measure.self_time ~start:s.start ~stop:s.stop s.kids
  - List.fold_left (fun acc c -> acc + c.ns) 0 s.counters

let find t name =
  List.rev (List.filter (fun s -> s.name = name && s.stop >= 0) t.rev)

let write t oc =
  List.iter
    (fun s ->
      let counters =
        List.map
          (fun c ->
            ( c.c_name,
              Bench_io.Obj
                [ ("ns", Bench_io.Int c.ns); ("calls", Bench_io.Int c.calls); ("sum", Bench_io.Int c.sum) ] ))
          s.counters
      in
      output_string oc
        (Json.to_string
           (Bench_io.Obj
              [
                ("id", Bench_io.Int s.id);
                ("parent", Bench_io.Int (match s.parent with Some p -> p.id | None -> -1));
                ("op", Bench_io.Int s.op);
                ("name", Bench_io.String s.name);
                ("start_ns", Bench_io.Int s.start);
                ("dur_ns", Bench_io.Int (duration s));
                ("self_ns", Bench_io.Int (self_ns s));
                ("counters", Bench_io.Obj counters);
              ]));
      output_char oc '\n')
    (List.rev t.rev)

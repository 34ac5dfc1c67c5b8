open Colring_engine
module Rng = Colring_stats.Rng

type 'm api = {
  node : int;
  degree : int;
  recv : int -> 'm option;
  pending : int -> int;
  send : int -> 'm -> unit;
  set_output : Output.t -> unit;
  terminate : unit -> unit;
  rng : Rng.t;
}

type 'm program = {
  start : 'm api -> unit;
  wake : 'm api -> unit;
  inspect : unit -> (string * int) list;
  snap : Engine_intf.snapshot option;
}

(* Per-step journal scratch for [force_step_undo] — the ring engine's
   scheme: the wake's consumed pulses (port + payload) and sent links,
   in order, reused across steps. *)
type 'm ulog = {
  mutable cports : int array;
  mutable cpayloads : 'm array;
  mutable clen : int;
  mutable slinks : int array;
  mutable slen : int;
}

let ulog_create () =
  { cports = [||]; cpayloads = [||]; clen = 0; slinks = [||]; slen = 0 }

let grow_ints a len =
  if Int.equal len (Array.length a) then
    Array.append a (Array.make (max 8 len) 0)
  else a

let ulog_send g link =
  g.slinks <- grow_ints g.slinks g.slen;
  g.slinks.(g.slen) <- link;
  g.slen <- g.slen + 1

let ulog_consume g port m =
  g.cports <- grow_ints g.cports g.clen;
  if Int.equal g.clen (Array.length g.cpayloads) then
    g.cpayloads <- Array.append g.cpayloads (Array.make (max 8 g.clen) m);
  g.cports.(g.clen) <- port;
  g.cpayloads.(g.clen) <- m;
  g.clen <- g.clen + 1

type 'm t = {
  topo : Gtopology.t;
  programs : 'm program array;
  mutable apis : 'm api array;
  (* Struct-of-arrays queues shared with the ring engine: [Envq] keeps
     the seq/batch stamps of in-flight messages in flat int arrays
     (the depth stamp, a ring-only causal clock, is stored as 0), and
     [Ring] mailboxes support the head/tail surgery the incremental
     undo needs ([push_front]/[pop_back]). *)
  channels : 'm Envq.t array; (* by link id *)
  mailboxes : 'm Ring.t array; (* by link id of the RECEIVING endpoint *)
  outputs : Output.t array;
  term : bool array;
  mutable term_order_rev : int list;
  metrics : Metrics.t;
  (* Same sink discipline as the ring engine: the engine's own
     [Sink.counters] teed with the caller's sink, so counting and user
     telemetry are one emission path and E14/E18 graph runs journal
     through the same [colring journal] validator as ring runs. *)
  sink : Sink.t;
  observed : bool;
  mutable next_seq : int;
  mutable next_batch : int;
  mutable in_flight : int;
  mutable backlog : int;
  (* Non-empty-link set maintained incrementally (the ring engine's
     scheme): the first [nonempty_count] entries of [nonempty] are the
     links with messages in flight, [link_pos] the inverse permutation
     (-1 when absent).  [nonempty] doubles as the view's buffer. *)
  nonempty : int array;
  link_pos : int array;
  mutable nonempty_count : int;
  mutable view : Scheduler.view;
  heads : Head_index.t; (* the view's head index; see Network *)
  (* Incremental-undo support (see the ring engine): [ulog] collects
     the current step's wake effects while [logging] is set; [undo_ok]
     is fixed at creation. *)
  ulog : 'm ulog;
  mutable logging : bool;
  undo_ok : bool;
}

let mark_nonempty t link =
  if t.link_pos.(link) < 0 then begin
    t.nonempty.(t.nonempty_count) <- link;
    t.link_pos.(link) <- t.nonempty_count;
    t.nonempty_count <- t.nonempty_count + 1
  end

let unmark_if_empty t link =
  if Envq.is_empty t.channels.(link) then begin
    let pos = t.link_pos.(link) in
    let last = t.nonempty_count - 1 in
    let moved = t.nonempty.(last) in
    t.nonempty.(pos) <- moved;
    t.link_pos.(moved) <- pos;
    t.link_pos.(link) <- -1;
    t.nonempty_count <- last
  end

(* Report a change of [link]'s head to the scheduler's head index
   (one field read while it is inactive). *)
let[@inline] touch t link =
  if t.heads.Head_index.active then
    Head_index.refresh t.heads link t.channels.(link)

let make_api t v rng =
  let mailbox p = t.mailboxes.(Gtopology.link_id t.topo ~node:v ~port:p) in
  let recv p =
    let mb = mailbox p in
    if Ring.is_empty mb then None
    else begin
      let m = Ring.pop mb in
      t.backlog <- t.backlog - 1;
      if t.logging then ulog_consume t.ulog p m;
      t.sink.Sink.on_consume ~node:v ~port:p;
      Some m
    end
  in
  let pending p = Ring.length (mailbox p) in
  let send p m =
    if t.term.(v) then failwith "Gnetwork: send after terminate";
    let link = Gtopology.link_id t.topo ~node:v ~port:p in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    Envq.push t.channels.(link) m ~seq ~batch:t.next_batch ~depth:0;
    mark_nonempty t link;
    touch t link;
    t.in_flight <- t.in_flight + 1;
    if t.logging then ulog_send t.ulog link;
    (* No global direction exists on a general graph, so every send is
       reported [cw:false]; [Metrics.sends_cw] stays 0. *)
    t.sink.Sink.on_send ~node:v ~port:p ~seq ~link ~cw:false
  in
  let set_output o =
    if not (Output.equal t.outputs.(v) o) then begin
      t.outputs.(v) <- o;
      t.sink.Sink.on_decide ~node:v ~output:o
    end
  in
  let terminate () =
    if not t.term.(v) then begin
      t.term.(v) <- true;
      t.term_order_rev <- v :: t.term_order_rev;
      t.sink.Sink.on_terminate ~node:v
    end
  in
  {
    node = v;
    degree = Gtopology.degree t.topo v;
    recv;
    pending;
    send;
    set_output;
    terminate;
    rng;
  }

let max_degree topo =
  let d = ref 1 in
  for v = 0 to Gtopology.n topo - 1 do
    if Gtopology.degree topo v > !d then d := Gtopology.degree topo v
  done;
  !d

let create ?(sink = Sink.null) ?(seed = 0) topo make_program =
  let n = Gtopology.n topo in
  let links = Gtopology.num_links topo in
  let metrics =
    Metrics.create ~ports_per_node:(max_degree topo) ~n_nodes:n ~n_links:links
      ()
  in
  let user_sink = sink in
  let programs = Array.init n make_program in
  let undo_ok =
    (not user_sink.Sink.enabled)
    && Array.for_all (fun p -> Option.is_some p.snap) programs
  in
  let heads = Head_index.create ~links in
  let t =
    {
      topo;
      programs;
      apis = [||];
      channels = Array.init links (fun _ -> Envq.create ());
      mailboxes = Array.init links (fun _ -> Ring.create ());
      outputs = Array.make n Output.empty;
      term = Array.make n false;
      term_order_rev = [];
      metrics;
      sink = Sink.tee (Sink.counters metrics) user_sink;
      observed = user_sink.Sink.enabled;
      next_seq = 0;
      next_batch = 0;
      in_flight = 0;
      backlog = 0;
      nonempty = Array.make links 0;
      link_pos = Array.make links (-1);
      nonempty_count = 0;
      heads;
      ulog = ulog_create ();
      logging = false;
      undo_ok;
      view =
        {
          Scheduler.nonempty = [||];
          count = 0;
          head_seq = (fun _ -> 0);
          head_batch = (fun _ -> 0);
          travels_cw = (fun _ -> None);
          dst_node = (fun _ -> 0);
          step = 0;
          heads;
        };
    }
  in
  t.view <-
    {
      Scheduler.nonempty = t.nonempty;
      count = 0;
      head_seq = (fun link -> Envq.head_seq t.channels.(link));
      head_batch = (fun link -> Envq.head_batch t.channels.(link));
      (* General graphs have no global direction; direction-biased
         schedulers degrade gracefully on [None]. *)
      travels_cw = (fun _ -> None);
      dst_node = (fun link -> fst (Gtopology.link_dst t.topo link));
      step = 0;
      heads;
    };
  let root_rng = Rng.create ~seed in
  t.apis <- Array.init n (fun v -> make_api t v (Rng.split_at root_rng v));
  for v = 0 to n - 1 do
    t.next_batch <- t.next_batch + 1;
    t.sink.Sink.on_wake ~node:v;
    t.programs.(v).start t.apis.(v)
  done;
  t

let view t =
  let v = t.view in
  v.Scheduler.count <- t.nonempty_count;
  v.Scheduler.step <- Metrics.deliveries t.metrics;
  v

let deliver_from t link =
  let q = t.channels.(link) in
  let seq = Envq.head_seq q in
  let payload = Envq.pop q in
  unmark_if_empty t link;
  touch t link;
  t.in_flight <- t.in_flight - 1;
  let dst, dst_port = Gtopology.link_dst t.topo link in
  if t.term.(dst) then t.sink.Sink.on_drop ~node:dst ~port:dst_port ~seq
  else begin
    t.sink.Sink.on_deliver ~node:dst ~port:dst_port ~seq;
    Ring.push t.mailboxes.(Gtopology.link_id t.topo ~node:dst ~port:dst_port)
      payload;
    t.backlog <- t.backlog + 1;
    t.next_batch <- t.next_batch + 1;
    t.sink.Sink.on_wake ~node:dst;
    t.programs.(dst).wake t.apis.(dst)
  end

let step t (sched : Scheduler.t) =
  if t.in_flight = 0 then false
  else begin
    deliver_from t (sched.pick (view t));
    true
  end

let force_step t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Gnetwork.force_step: empty link";
  deliver_from t link

(* ------------------------------------------------------------------ *)
(* Incremental undo — the ring engine's scheme without ring-only
   clocks; see Network.force_step_undo for the full commentary. *)

type 'm undo = {
  u_link : int;
  u_payload : 'm;
  u_seq : int;
  u_batch : int;
  u_dst : int;
  u_dst_port : int;
  u_dropped : bool;
  u_prev_output : Output.t;
  u_became_term : bool;
  u_prev_next_seq : int;
  u_prev_next_batch : int;
  u_snap : int array;
  u_consumed_ports : int array;
  u_consumed_payloads : 'm array;
  u_sent_links : int array;
}

let undo_capable t = t.undo_ok

let force_step_undo t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Gnetwork.force_step_undo: empty link";
  if not t.undo_ok then
    invalid_arg "Gnetwork.force_step_undo: network is not undo-capable";
  let q = t.channels.(link) in
  let u_seq = Envq.head_seq q in
  let u_batch = Envq.head_batch q in
  let u_payload = Envq.peek q in
  let dst, dst_port = Gtopology.link_dst t.topo link in
  let dropped = t.term.(dst) in
  let u_snap =
    if dropped then [||]
    else
      match t.programs.(dst).snap with
      | Some s -> s.Engine_intf.save ()
      | None -> assert false (* undo_ok *)
  in
  let u_prev_output = t.outputs.(dst) in
  let u_prev_next_seq = t.next_seq in
  let u_prev_next_batch = t.next_batch in
  let g = t.ulog in
  g.clen <- 0;
  g.slen <- 0;
  t.logging <- true;
  deliver_from t link;
  t.logging <- false;
  {
    u_link = link;
    u_payload;
    u_seq;
    u_batch;
    u_dst = dst;
    u_dst_port = dst_port;
    u_dropped = dropped;
    u_prev_output;
    u_became_term = (not dropped) && t.term.(dst);
    u_prev_next_seq;
    u_prev_next_batch;
    u_snap;
    u_consumed_ports = Array.sub g.cports 0 g.clen;
    u_consumed_payloads = Array.sub g.cpayloads 0 g.clen;
    u_sent_links = Array.sub g.slinks 0 g.slen;
  }

let undo_step t u =
  let dst = u.u_dst in
  if u.u_dropped then Metrics.undo_post_termination_delivery t.metrics
  else begin
    for i = Array.length u.u_sent_links - 1 downto 0 do
      let l = u.u_sent_links.(i) in
      ignore (Envq.pop_back t.channels.(l));
      unmark_if_empty t l;
      touch t l;
      t.in_flight <- t.in_flight - 1;
      Metrics.undo_send t.metrics ~link:l ~node:dst ~cw:false
    done;
    for i = Array.length u.u_consumed_ports - 1 downto 0 do
      let p = u.u_consumed_ports.(i) in
      Ring.push_front
        t.mailboxes.(Gtopology.link_id t.topo ~node:dst ~port:p)
        u.u_consumed_payloads.(i);
      t.backlog <- t.backlog + 1;
      Metrics.undo_consume t.metrics ~node:dst ~port_index:p
    done;
    ignore
      (Ring.pop_back
         t.mailboxes.(Gtopology.link_id t.topo ~node:dst ~port:u.u_dst_port));
    t.backlog <- t.backlog - 1;
    Metrics.undo_deliver t.metrics ~node:dst ~port_index:u.u_dst_port;
    Metrics.undo_wake t.metrics;
    (match t.programs.(dst).snap with
    | Some s -> s.Engine_intf.load u.u_snap
    | None -> assert false);
    t.outputs.(dst) <- u.u_prev_output;
    if u.u_became_term then begin
      t.term.(dst) <- false;
      t.term_order_rev <-
        (match t.term_order_rev with _ :: rest -> rest | [] -> assert false)
    end;
    t.next_seq <- u.u_prev_next_seq;
    t.next_batch <- u.u_prev_next_batch
  end;
  Envq.push_front t.channels.(u.u_link) u.u_payload ~seq:u.u_seq
    ~batch:u.u_batch ~depth:0;
  mark_nonempty t u.u_link;
  touch t u.u_link;
  t.in_flight <- t.in_flight + 1

let enabled_count t = t.nonempty_count

let rec enabled_scan t link i best =
  if i >= t.nonempty_count then best
  else
    let l = t.nonempty.(i) in
    if l > link && (best < 0 || l < best) then enabled_scan t link (i + 1) l
    else enabled_scan t link (i + 1) best

let enabled_link t ~after = enabled_scan t after 0 (-1)
let channel_length t ~link = Envq.length t.channels.(link)

let mailbox_length t ~node ~port =
  Ring.length t.mailboxes.(Gtopology.link_id t.topo ~node ~port)

let channel_payloads t ~link = Envq.to_payload_array t.channels.(link)

let mailbox_payloads t ~node ~port =
  Ring.to_array t.mailboxes.(Gtopology.link_id t.topo ~node ~port)

type run_result = Engine_intf.run_result = {
  sends : int;
  deliveries : int;
  quiescent : bool;
  all_terminated : bool;
  exhausted : bool;
  termination_order : int list;
}

let all_terminated t = Array.for_all Fun.id t.term
let in_flight t = t.in_flight
let mailbox_backlog t = t.backlog
let is_quiescent t = t.in_flight = 0 && t.backlog = 0

let run ?(max_deliveries = 50_000_000) ?(snapshot_every = 0) ?probe t sched =
  let exhausted = ref false in
  let continue = ref true in
  while !continue do
    if Metrics.deliveries t.metrics >= max_deliveries then begin
      exhausted := true;
      continue := false
    end
    else if not (step t sched) then continue := false
    else begin
      (if snapshot_every > 0 && t.observed then
         let d = Metrics.deliveries t.metrics in
         if d mod snapshot_every = 0 then
           t.sink.Sink.on_snapshot ~step:d (Metrics.to_assoc t.metrics));
      match probe with
      | None -> ()
      | Some f -> f ~step:(Metrics.deliveries t.metrics)
    end
  done;
  {
    sends = Metrics.sends t.metrics;
    deliveries = Metrics.deliveries t.metrics;
    quiescent = is_quiescent t;
    all_terminated = all_terminated t;
    exhausted = !exhausted;
    termination_order = List.rev t.term_order_rev;
  }

let topology t = t.topo
let size t = Gtopology.n t.topo
let output t v = t.outputs.(v)
let outputs t = Array.copy t.outputs
let terminated t v = t.term.(v)
let termination_order t = List.rev t.term_order_rev
let inspect t v = t.programs.(v).inspect ()

let inspect_counter t v name =
  match List.assoc_opt name (inspect t v) with
  | Some x -> x
  | None -> raise Not_found

let metrics t = t.metrics
let sends (t : _ t) = Metrics.sends t.metrics

let post_termination_deliveries (t : _ t) =
  Metrics.post_termination_deliveries t.metrics

let num_links topo = Gtopology.num_links topo
let link_dst_node topo link = fst (Gtopology.link_dst topo link)

(* Same canonical shape as [Network.fingerprint], generalised to
   arbitrary degree: channel depths, per-port mailbox depths,
   termination flag, output, inspect counters. *)
let fingerprint t =
  let buf = Buffer.create 128 in
  let n = size t in
  for link = 0 to Gtopology.num_links t.topo - 1 do
    Output.add_int buf (channel_length t ~link);
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf '|';
  for v = 0 to n - 1 do
    for p = 0 to Gtopology.degree t.topo v - 1 do
      if p > 0 then Buffer.add_char buf ':';
      Output.add_int buf (mailbox_length t ~node:v ~port:p)
    done;
    Buffer.add_char buf ';';
    Buffer.add_string buf (if terminated t v then "T" else "t");
    Output.add_compact buf (output t v);
    (* Program state via [inspect], as in [Network.fingerprint]:
       comparable across implementation variants that share counter
       names but differ in internal (snapshot) layout. *)
    List.iter
      (fun (k, x) ->
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Output.add_int buf x;
        Buffer.add_char buf ' ')
      (inspect t v);
    Buffer.add_char buf '|'
  done;
  Buffer.contents buf

(* The checker's key, as in [Network.write_key]: progress counters,
   then [fingerprint]'s fields in its order (the port count per node
   is fixed by the topology, so it needs no prefix). *)
let write_key t w =
  let m = t.metrics in
  State_key.add_int w (Metrics.sends m);
  State_key.add_int w (Metrics.deliveries m);
  State_key.add_int w (Metrics.post_termination_deliveries m);
  for link = 0 to Array.length t.channels - 1 do
    State_key.add_int w (Envq.length t.channels.(link))
  done;
  for v = 0 to Array.length t.term - 1 do
    for p = 0 to Gtopology.degree t.topo v - 1 do
      State_key.add_int w (mailbox_length t ~node:v ~port:p)
    done;
    State_key.add_int w (if t.term.(v) then 1 else 0);
    State_key.add_output w t.outputs.(v);
    State_key.add_inspect w ~node:v (t.programs.(v).inspect ())
  done

module Rng = Colring_stats.Rng

type 'm api = {
  node : int;
  recv : Port.t -> 'm option;
  recv_pulse : Port.t -> bool;
  peek : Port.t -> 'm option;
  pending : Port.t -> int;
  send : Port.t -> 'm -> unit;
  set_output : Output.t -> unit;
  terminate : unit -> unit;
  mutable rng : Rng.t;
}

type 'm program = {
  start : 'm api -> unit;
  wake : 'm api -> unit;
  inspect : unit -> (string * int) list;
  snap : Engine_intf.snapshot option;
}

let silent_program =
  {
    start = (fun _ -> ());
    wake = (fun _ -> ());
    inspect = (fun () -> []);
    snap = Some { Engine_intf.save = (fun () -> [||]); load = (fun _ -> ()) };
  }

(* Per-step journal scratch for [force_step_undo]: the wake's consumed
   pulses (port + payload) and sent links, in order.  One per network,
   reused across steps; arrays grow by doubling and are copied out
   into each undo record. *)
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
  topo : Topology.t;
  programs : 'm program array;
  mutable apis : 'm api array;
  channels : 'm Envq.t array; (* by link id *)
  mailboxes : 'm Ring.t array; (* node * 2 + port *)
  outputs : Output.t array;
  term : bool array;
  mutable term_order_rev : int list;
  metrics : Metrics.t;
  (* The effective sink: the engine's own [Sink.counters] teed with
     whatever the caller passed, so counting and user telemetry are a
     single emission path.  [observed] remembers whether the caller's
     sink is live — the guard that keeps snapshot emission (and any
     other record that must allocate its payload) off the default
     path. *)
  sink : Sink.t;
  observed : bool;
  mutable next_seq : int;
  mutable next_batch : int;
  mutable in_flight : int;
  mutable mailbox_backlog : int;
  (* Causal clocks: [local_clock.(v)] is the largest causal depth of
     any pulse delivered to v; pulses sent by v's current activation
     carry depth [local_clock.(v) + 1].  The maximum over all delivered
     pulses is the run's asynchronous time (every message counted as
     one time unit). *)
  local_clock : int array;
  mutable causal_span : int;
  (* The non-empty-link set, maintained incrementally on send/deliver:
     the first [nonempty_count] entries of [nonempty] are the links
     with pulses in flight (unordered), and [link_pos] is the inverse
     permutation (-1 when absent).  [nonempty] doubles as the scratch
     buffer of the reusable scheduler [view], so refreshing a view
     copies nothing. *)
  nonempty : int array;
  link_pos : int array;
  mutable nonempty_count : int;
  mutable view : Scheduler.view;
  (* The view's head index (also reachable as [view.heads]): inactive
     until a FIFO-family pick starts it, then kept current by [touch]. *)
  heads : Head_index.t;
  (* Incremental-undo support: [ulog] collects the current step's wake
     effects while [logging] is set (only inside [force_step_undo]);
     [undo_ok] is fixed at creation — every program must carry a
     [snap] codec and no user sink may observe the run, since emitted
     events cannot be unemitted. *)
  ulog : 'm ulog;
  mutable logging : bool;
  undo_ok : bool;
}

let slot v p = (v * 2) + Port.index p

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

(* Report a change of [link]'s head to the scheduler's head index.
   Inactive (the common case for every non-FIFO scheduler) this is one
   field read. *)
let[@inline] touch t link =
  if t.heads.Head_index.active then
    Head_index.refresh t.heads link t.channels.(link)

(* The one enqueue path: [send] and [inject] share it, so both stamp
   envelopes with the batch convention of the current activation
   ([t.next_batch] is bumped at activation boundaries only).  Sink
   callbacks take immediate arguments only — no event value is
   materialised — so the steady-state hot path stays allocation-free
   under the default (counters-only) sink. *)
let enqueue t ~link ~node ~port m =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  mark_nonempty t link;
  Envq.push t.channels.(link) m ~seq ~batch:t.next_batch
    ~depth:(t.local_clock.(node) + 1);
  touch t link;
  t.in_flight <- t.in_flight + 1;
  if t.logging then ulog_send t.ulog link;
  t.sink.Sink.on_send ~node ~port:(Port.index port) ~seq ~link
    ~cw:(Topology.link_travels_cw t.topo link)

let make_api t v rng =
  let consume v p =
    t.mailbox_backlog <- t.mailbox_backlog - 1;
    t.sink.Sink.on_consume ~node:v ~port:(Port.index p)
  in
  let recv p =
    let mb = t.mailboxes.(slot v p) in
    if Ring.is_empty mb then None
    else begin
      let m = Ring.pop mb in
      consume v p;
      if t.logging then ulog_consume t.ulog (Port.index p) m;
      Some m
    end
  in
  let recv_pulse p =
    let mb = t.mailboxes.(slot v p) in
    if Ring.is_empty mb then false
    else begin
      let m = Ring.pop mb in
      consume v p;
      if t.logging then ulog_consume t.ulog (Port.index p) m;
      true
    end
  in
  let peek p =
    let mb = t.mailboxes.(slot v p) in
    if Ring.is_empty mb then None else Some (Ring.peek mb)
  in
  let pending p = Ring.length t.mailboxes.(slot v p) in
  let send p m =
    if t.term.(v) then failwith "Network: send after terminate";
    enqueue t ~link:(Topology.link_id t.topo v p) ~node:v ~port:p m
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
  { node = v; recv; recv_pulse; peek; pending; send; set_output; terminate; rng }

let create ?(sink = Sink.null) ?(seed = 0) topo make_program =
  Topology.check topo;
  let n = Topology.n topo in
  let num_links = Topology.num_links topo in
  let programs = Array.init n make_program in
  let metrics = Metrics.create ~n_nodes:n ~n_links:num_links () in
  let user_sink = sink in
  let undo_ok =
    (not user_sink.Sink.enabled)
    && Array.for_all (fun p -> Option.is_some p.snap) programs
  in
  let heads = Head_index.create ~links:num_links in
  let t =
    {
      topo;
      programs;
      apis = [||];
      channels = Array.init num_links (fun _ -> Envq.create ());
      mailboxes = Array.init (n * 2) (fun _ -> Ring.create ());
      outputs = Array.make n Output.empty;
      term = Array.make n false;
      term_order_rev = [];
      metrics;
      sink = Sink.tee (Sink.counters metrics) user_sink;
      observed = user_sink.Sink.enabled;
      next_seq = 0;
      next_batch = 0;
      in_flight = 0;
      mailbox_backlog = 0;
      local_clock = Array.make n 0;
      causal_span = 0;
      nonempty = Array.make num_links 0;
      link_pos = Array.make num_links (-1);
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
  (* The reusable scheduler view: closures are built once here, and
     [nonempty] aliases the incrementally-maintained set, so refreshing
     a view per step is two integer stores. *)
  t.view <-
    {
      Scheduler.nonempty = t.nonempty;
      count = 0;
      head_seq = (fun link -> Envq.head_seq t.channels.(link));
      head_batch = (fun link -> Envq.head_batch t.channels.(link));
      travels_cw =
        (* Static [Some] constants: the per-pick closure must not
           allocate. *)
        (fun link ->
          if Topology.link_travels_cw t.topo link then Some true
          else Some false);
      dst_node = (fun link -> fst (Topology.link_dst t.topo link));
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
  let depth = Envq.head_depth q in
  let payload = Envq.pop q in
  unmark_if_empty t link;
  touch t link;
  t.in_flight <- t.in_flight - 1;
  let dst, dst_port = Topology.link_dst t.topo link in
  if t.term.(dst) then
    (* Terminated nodes ignore pulses; each such arrival is a
       violation of quiescent termination, which tests assert away. *)
    t.sink.Sink.on_drop ~node:dst ~port:(Port.index dst_port) ~seq
  else begin
    t.sink.Sink.on_deliver ~node:dst ~port:(Port.index dst_port) ~seq;
    Ring.push t.mailboxes.(slot dst dst_port) payload;
    t.mailbox_backlog <- t.mailbox_backlog + 1;
    if depth > t.local_clock.(dst) then t.local_clock.(dst) <- depth;
    if depth > t.causal_span then t.causal_span <- depth;
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

let active_links t =
  let acc = ref [] in
  for link = Array.length t.channels - 1 downto 0 do
    if not (Envq.is_empty t.channels.(link)) then acc := link :: !acc
  done;
  !acc

let force_step t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Network.force_step: empty link";
  deliver_from t link

(* ------------------------------------------------------------------ *)
(* Incremental undo (Engine_intf.NETWORK contract).  One record per
   delivery: the popped envelope with its stamps, the destination's
   pre-wake program snapshot and engine-side scalars, and the wake's
   journalled consume/send effects.  [undo_step] applies the inverses
   in reverse order, so a LIFO stack of records walks the network back
   along any prefix of the forced schedule. *)

type 'm undo = {
  u_link : int;
  u_payload : 'm;
  u_seq : int;
  u_batch : int;
  u_depth : int;
  u_dst : int;
  u_dst_port : int;
  u_dropped : bool; (* destination was terminated: no wake ran *)
  u_prev_output : Output.t;
  u_became_term : bool;
  u_prev_clock : int;
  u_prev_span : int;
  u_prev_next_seq : int;
  u_prev_next_batch : int;
  u_snap : int array; (* destination program state before the wake *)
  u_consumed_ports : int array;
  u_consumed_payloads : 'm array;
  u_sent_links : int array;
}

let undo_capable t = t.undo_ok

let force_step_undo t ~link =
  if Envq.is_empty t.channels.(link) then
    invalid_arg "Network.force_step_undo: empty link";
  if not t.undo_ok then
    invalid_arg "Network.force_step_undo: network is not undo-capable";
  let q = t.channels.(link) in
  let u_seq = Envq.head_seq q in
  let u_batch = Envq.head_batch q in
  let u_depth = Envq.head_depth q in
  let u_payload = Envq.peek q in
  let dst, dst_port = Topology.link_dst t.topo link in
  let dropped = t.term.(dst) in
  let u_snap =
    if dropped then [||]
    else
      match t.programs.(dst).snap with
      | Some s -> s.Engine_intf.save ()
      | None -> assert false (* undo_ok *)
  in
  let u_prev_output = t.outputs.(dst) in
  let u_prev_clock = t.local_clock.(dst) in
  let u_prev_span = t.causal_span in
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
    u_depth;
    u_dst = dst;
    u_dst_port = Port.index dst_port;
    u_dropped = dropped;
    u_prev_output;
    u_became_term = (not dropped) && t.term.(dst);
    u_prev_clock;
    u_prev_span;
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
    (* Retract the wake's sends, newest first. *)
    for i = Array.length u.u_sent_links - 1 downto 0 do
      let l = u.u_sent_links.(i) in
      ignore (Envq.pop_back t.channels.(l));
      unmark_if_empty t l;
      touch t l;
      t.in_flight <- t.in_flight - 1;
      Metrics.undo_send t.metrics ~link:l ~node:dst
        ~cw:(Topology.link_travels_cw t.topo l)
    done;
    (* Re-file the wake's consumed pulses, newest first: this restores
       the mailbox to its state just after the delivery pushed the
       incoming payload at the tail... *)
    for i = Array.length u.u_consumed_ports - 1 downto 0 do
      let p = u.u_consumed_ports.(i) in
      Ring.push_front t.mailboxes.((dst * 2) + p) u.u_consumed_payloads.(i);
      t.mailbox_backlog <- t.mailbox_backlog + 1;
      Metrics.undo_consume t.metrics ~node:dst ~port_index:p
    done;
    (* ... so popping that tail element retracts the delivery. *)
    ignore (Ring.pop_back t.mailboxes.((dst * 2) + u.u_dst_port));
    t.mailbox_backlog <- t.mailbox_backlog - 1;
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
    t.local_clock.(dst) <- u.u_prev_clock;
    t.causal_span <- u.u_prev_span;
    t.next_seq <- u.u_prev_next_seq;
    t.next_batch <- u.u_prev_next_batch
  end;
  (* Put the envelope back at the head of its channel. *)
  Envq.push_front t.channels.(u.u_link) u.u_payload ~seq:u.u_seq
    ~batch:u.u_batch ~depth:u.u_depth;
  mark_nonempty t u.u_link;
  touch t u.u_link;
  t.in_flight <- t.in_flight + 1

let enabled_count t = t.nonempty_count

(* Smallest non-empty link strictly greater than [link], by scanning
   the unordered non-empty buffer; -1 when none.  Written as a
   top-level tail recursion over immediate arguments so an enumeration
   of the enabled set allocates nothing (the model checker calls this
   in its innermost loop). *)
let rec enabled_scan t link i best =
  if i >= t.nonempty_count then best
  else
    let l = t.nonempty.(i) in
    if l > link && (best < 0 || l < best) then enabled_scan t link (i + 1) l
    else enabled_scan t link (i + 1) best

let enabled_link t ~after = enabled_scan t after 0 (-1)

let channel_length t ~link = Envq.length t.channels.(link)
let mailbox_length t ~node ~port = Ring.length t.mailboxes.(slot node port)
let channel_payloads t ~link = Envq.to_payload_array t.channels.(link)
let mailbox_payloads t ~node ~port = Ring.to_array t.mailboxes.(slot node port)

let inject t ~node ~port m =
  enqueue t ~link:(Topology.link_id t.topo node port) ~node ~port m

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
let mailbox_backlog t = t.mailbox_backlog
let is_quiescent t = t.in_flight = 0 && t.mailbox_backlog = 0

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

let causal_span t = t.causal_span

let topology t = t.topo
let size t = Topology.n t.topo
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
let trace t = Sink.trace t.sink
let num_links topo = Topology.num_links topo
let link_dst_node topo link = fst (Topology.link_dst topo link)

(* Canonical observable-state string; {!Explore.fingerprint} and the
   model checker's dedup key delegate here.  Covers channel depths,
   per-port mailbox depths, termination flags, outputs and inspect
   counters — everything a monitor can see. *)
let fingerprint t =
  let buf = Buffer.create 128 in
  let n = size t in
  for link = 0 to Topology.num_links t.topo - 1 do
    Output.add_int buf (channel_length t ~link);
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf '|';
  for v = 0 to n - 1 do
    Output.add_int buf (mailbox_length t ~node:v ~port:Port.P0);
    Buffer.add_char buf ':';
    Output.add_int buf (mailbox_length t ~node:v ~port:Port.P1);
    Buffer.add_char buf ';';
    Buffer.add_string buf (if terminated t v then "T" else "t");
    Output.add_compact buf (output t v);
    (* Program state via the [inspect] counters, NOT the snapshot
       codec: fingerprints must agree across implementation variants
       that share observable counters but differ in internal layout
       (e.g. the two Algorithm 2 engines in the differential tests). *)
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

(* The checker's key: the progress counters, then [fingerprint]'s
   fields in its order, as varints and without the inspect labels. *)
let write_key t w =
  let m = t.metrics in
  State_key.add_int w (Metrics.sends m);
  State_key.add_int w (Metrics.deliveries m);
  State_key.add_int w (Metrics.post_termination_deliveries m);
  for link = 0 to Array.length t.channels - 1 do
    State_key.add_int w (Envq.length t.channels.(link))
  done;
  for v = 0 to Array.length t.term - 1 do
    State_key.add_int w (Ring.length t.mailboxes.(slot v Port.P0));
    State_key.add_int w (Ring.length t.mailboxes.(slot v Port.P1));
    State_key.add_int w (if t.term.(v) then 1 else 0);
    State_key.add_output w t.outputs.(v);
    State_key.add_inspect w ~node:v (t.programs.(v).inspect ())
  done

type pulse = unit

let pulse = ()

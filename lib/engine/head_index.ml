(* Three binary min-heaps of non-empty links, one per direction class
   (0 = cw, 1 = ccw, 2 = no defined direction), keyed by the link's
   head sequence number.  The heaps share one flat array: class [c]
   occupies [heap.(c * links) .. heap.(c * links + size.(c) - 1)].
   Per-link state is one stride-4 [int array] — head seq, head batch,
   class, heap position (-1 when the link is in no heap) — so a sift
   compares array reads and makes no closure call. *)
type t = {
  links : int;
  mutable active : bool;
  mutable meta : int array;
  mutable heap : int array;
  size : int array;
}

let[@inline] seq_of t l = t.meta.(4 * l)
let[@inline] batch_of t l = t.meta.((4 * l) + 1)
let[@inline] cls_of t l = t.meta.((4 * l) + 2)
let[@inline] pos_of t l = t.meta.((4 * l) + 3)

let create ~links =
  if links < 0 then invalid_arg "Head_index.create: negative link count";
  { links; active = false; meta = [||]; heap = [||]; size = Array.make 3 0 }

let deactivate t = t.active <- false

let place t base i l =
  t.heap.(base + i) <- l;
  t.meta.((4 * l) + 3) <- i

(* Move the hole at heap index [i] towards the root until [l] (key [k])
   fits, then put [l] there. *)
let rec sift_up t base i l k =
  if i = 0 then place t base 0 l
  else
    let p = (i - 1) lsr 1 in
    let pl = t.heap.(base + p) in
    if seq_of t pl > k then begin
      place t base i pl;
      sift_up t base p l k
    end
    else place t base i l

(* Move the hole at heap index [i] towards the leaves of a heap of
   [n] elements until [l] (key [k]) fits, then put [l] there. *)
let rec sift_down t base n i l k =
  let c = (2 * i) + 1 in
  if c >= n then place t base i l
  else
    let c =
      if c + 1 < n && seq_of t t.heap.(base + c + 1) < seq_of t t.heap.(base + c)
      then c + 1
      else c
    in
    let cl = t.heap.(base + c) in
    if seq_of t cl < k then begin
      place t base i cl;
      sift_down t base n c l k
    end
    else place t base i l

let set t link ~seq ~batch =
  let i = pos_of t link in
  let old = seq_of t link in
  if i < 0 || not (Int.equal old seq) then begin
    let c = cls_of t link in
    let base = c * t.links in
    t.meta.(4 * link) <- seq;
    t.meta.((4 * link) + 1) <- batch;
    if i < 0 then begin
      let n = t.size.(c) in
      t.size.(c) <- n + 1;
      sift_up t base n link seq
    end
    else if seq > old then sift_down t base t.size.(c) i link seq
    else sift_up t base i link seq
  end

let remove t link =
  let i = pos_of t link in
  if i >= 0 then begin
    let c = cls_of t link in
    let base = c * t.links in
    let n = t.size.(c) - 1 in
    t.size.(c) <- n;
    t.meta.((4 * link) + 3) <- -1;
    if i < n then begin
      let last = t.heap.(base + n) in
      let k = seq_of t last in
      if i > 0 && seq_of t t.heap.(base + ((i - 1) lsr 1)) > k then
        sift_up t base i last k
      else sift_down t base n i last k
    end
  end

let refresh t link q =
  if Envq.is_empty q then remove t link
  else set t link ~seq:(Envq.head_seq q) ~batch:(Envq.head_batch q)

let class_of = function Some true -> 0 | Some false -> 1 | None -> 2

let activate t ~nonempty ~count ~head_seq ~head_batch ~travels_cw =
  if Array.length t.meta < 4 * t.links then begin
    t.meta <- Array.make (4 * t.links) 0;
    t.heap <- Array.make (3 * t.links) 0
  end;
  for l = 0 to t.links - 1 do
    t.meta.((4 * l) + 2) <- class_of (travels_cw l);
    t.meta.((4 * l) + 3) <- -1
  done;
  Array.fill t.size 0 3 0;
  for i = 0 to count - 1 do
    let l = nonempty.(i) in
    if l < 0 || l >= t.links then
      invalid_arg "Head_index.activate: link out of range";
    set t l ~seq:(head_seq l) ~batch:(head_batch l)
  done;
  t.active <- true

(* {2 Picks}  [top] is -1 for an empty class. *)

let top t c = if t.size.(c) = 0 then -1 else t.heap.(c * t.links)

let older t a b =
  if a < 0 then b
  else if b < 0 then a
  else if seq_of t b < seq_of t a then b
  else a

let global_fifo t = older t (older t (top t 0) (top t 1)) (top t 2)

let fifo t =
  let a = top t 0 in
  let b = older t (top t 1) (top t 2) in
  if a < 0 then b
  else if b < 0 then a
  else if batch_of t b < batch_of t a then b
  else a

let bias t ~cw =
  let p = if cw then 0 else 1 in
  let a = top t p in
  if a >= 0 then a else older t (top t (1 - p)) (top t 2)

let size t = t.size.(0) + t.size.(1) + t.size.(2)

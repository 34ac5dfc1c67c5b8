(* A growable byte buffer of zigzag LEB128 varints, plus the per-node
   inspect label schema that lets keys leave the labels out.  The
   write path (hot.sexp) allocates nothing: growing the buffer,
   recording a schema and reporting a mismatch are the slow paths,
   kept in their own functions. *)

type t = {
  mutable buf : Bytes.t;
  mutable len : int;
  (* [schema.(v)]: node [v]'s inspect labels, recorded by the first
     key that wrote [v]. *)
  mutable schema : string list option array;
}

let create () = { buf = Bytes.create 64; len = 0; schema = [||] }
let clear w = w.len <- 0
let contents w = Bytes.sub_string w.buf 0 w.len

let grow w =
  let b = Bytes.create (2 * Bytes.length w.buf) in
  Bytes.blit w.buf 0 b 0 w.len;
  w.buf <- b

(* Seven bits per byte, low group first, high bit set on every byte
   but the last.  [lsr] treats [z] as unsigned, so at most 9 bytes. *)
let rec add_uvarint w z =
  if z land lnot 0x7f = 0 then begin
    Bytes.unsafe_set w.buf w.len (Char.unsafe_chr z);
    w.len <- w.len + 1
  end
  else begin
    Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (z land 0x7f lor 0x80));
    w.len <- w.len + 1;
    add_uvarint w (z lsr 7)
  end

(* Zigzag maps small magnitudes of either sign to small unsigned
   values: 0, -1, 1, -2, ... become 0, 1, 2, 3, ... *)
let add_int w n =
  if w.len + 9 > Bytes.length w.buf then grow w;
  add_uvarint w ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let rec add_ints w l =
  match l with
  | [] -> ()
  | x :: rest ->
      add_int w x;
      add_ints w rest

let add_output w (o : Output.t) =
  add_int w
    (match o.role with
    | Output.Leader -> 0
    | Output.Non_leader -> 1
    | Output.Undecided -> 2);
  add_int w (match o.cw_port with None -> 0 | Some p -> 1 + Port.index p);
  (match o.value with
  | None -> add_int w 0
  | Some v ->
      add_int w 1;
      add_int w v);
  add_int w (List.length o.values);
  add_ints w o.values

let rec add_values w l =
  match l with
  | [] -> ()
  | (_, x) :: rest ->
      add_int w x;
      add_values w rest

let rec same_labels labels l =
  match labels with
  | [] -> ( match l with [] -> true | _ :: _ -> false)
  | k :: ks -> (
      match l with
      | [] -> false
      | (k', _) :: rest -> (k == k' || String.equal k k') && same_labels ks rest)

let record w node l =
  let known = Array.length w.schema in
  if node >= known then begin
    let s = Array.make (max (node + 1) (2 * known)) None in
    Array.blit w.schema 0 s 0 known;
    w.schema <- s
  end;
  w.schema.(node) <- Some (List.map fst l)

let mismatch node labels l =
  invalid_arg
    (Printf.sprintf
       "State_key: node %d inspect labels [%s] differ from the [%s] recorded \
        by an earlier key; inspect must return a fixed label schema"
       node
       (String.concat "; " (List.map fst l))
       (String.concat "; " labels))

let add_inspect w ~node l =
  (if node < Array.length w.schema then
     match w.schema.(node) with
     | Some labels -> if not (same_labels labels l) then mismatch node labels l
     | None -> record w node l
   else record w node l);
  add_int w (List.length l);
  add_values w l

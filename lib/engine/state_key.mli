(** Compact, exact state keys for the model checker's seen table.

    A writer is a reusable byte buffer.  Ints go in as zigzag LEB128
    varints (one byte for [-64 .. 63]), so a key is an injective,
    prefix-free encoding of the int sequence written into it: two
    keys built from the same write sequence shape are equal iff the
    written ints are.  No decimal rendering, no [Printf], no
    [Buffer].

    Program state enters through {!add_inspect}, which writes the
    [inspect] values but not their labels.  Leaving the labels out is
    exact only while every node's label list is fixed, so the writer
    remembers each node's labels from the first key it builds and
    checks every later key against them: a program whose [inspect]
    schema changes makes {!add_inspect} raise instead of letting two
    distinct states share a key.

    The engines' [write_key] walks ({!Network.write_key} and the graph
    engine's) fill a writer with one state; a writer belongs to one
    seen table and is not shared across domains. *)

type t

val create : unit -> t
(** An empty writer with no recorded label schema. *)

val clear : t -> unit
(** Drop the written bytes; the recorded label schema stays. *)

val add_int : t -> int -> unit
(** Append one int as a zigzag varint (1 to 9 bytes). *)

val add_output : t -> Output.t -> unit
(** Append every field of an output, in a fixed tagged layout:
    role, cw port, value, then the values list length-prefixed.
    Equal bytes iff {!Output.equal}. *)

val add_inspect : t -> node:int -> (string * int) list -> unit
(** Append [node]'s inspect values, length-prefixed, without their
    labels.  The first call for a [node] records its labels; later
    calls compare each label with [==], then [String.equal].  Raises
    [Invalid_argument] naming the node when the labels differ from the
    recorded ones. *)

val contents : t -> string
(** The key written since the last {!clear}. *)

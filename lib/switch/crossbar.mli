(** The 13x13 crossbar connection state (paper section 5.1).

    The crossbar carries a 9-bit data path from one input to any set of
    free outputs, plus a 1-bit reverse flow-control path.  This module
    tracks which output ports are connected to which input; the dataplane
    simulator moves the actual slots.  An output serves at most one input;
    an input may drive several outputs simultaneously (broadcast). *)

open Autonet_net

type t

val create : max_ports:int -> t

val max_ports : t -> int

val connect : t -> in_port:int -> out_ports:Port_vector.t -> unit
(** Raises [Invalid_argument] if any requested output is busy. *)

val release_output : t -> out_port:int -> unit
(** Free one output (its packet's end mark has been forwarded). *)

val release_input : t -> in_port:int -> unit
(** Free every output fed by this input (link-unit reset mid-packet). *)

val source_of : t -> out_port:int -> int option
(** The input feeding this output, if connected. *)

val outputs_of : t -> in_port:int -> Port_vector.t

val busy_outputs : t -> Port_vector.t

val free_outputs : t -> Port_vector.t

val reset : t -> unit

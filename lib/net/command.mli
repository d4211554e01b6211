(** Link commands and channel slots (paper section 6.1).

    The TAXI chips carry 256 data byte values plus 16 command values.  A
    channel is a continuous sequence of 80 ns slots; every slot carries
    either a data byte or a command.  Every 256th slot is a flow-control
    slot; the rest are data slots.  Idle data slots carry {!Sync}. *)

type command =
  | Sync   (** keeps transmitter/receiver synchronized; fills idle slots *)
  | Begin  (** packet framing: start of packet *)
  | End    (** packet framing: end of packet *)
  | Start  (** flow control: receiver FIFO below threshold, may transmit *)
  | Stop   (** flow control: receiver FIFO above threshold, pause *)
  | Host   (** sent by host controllers instead of [Start] *)
  | Idhy   (** "I don't hear you": force the peer to declare the link bad *)
  | Panic  (** reset the peer's link unit (never implemented in the paper) *)

type slot =
  | Data of int   (** a packet payload byte, 0-255 *)
  | Command of command

val equal_command : command -> command -> bool
val equal_slot : slot -> slot -> bool

val is_flow_control : command -> bool
(** True for [Start], [Stop], [Host] and [Idhy] — the directives legal in a
    flow-control slot. *)


val flow_control_period : int
(** Slots between flow-control slots (256). *)

val slot_ns : int
(** Duration of one slot: 80 ns, i.e. one byte at 100 Mbit/s. *)

val slots_per_km : float
(** Link propagation delay in slot times per kilometre of cable: the
    paper's [W = 64.1 L] figure. *)

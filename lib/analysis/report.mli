(** Aligned-table rendering for the experiment harness: every table and
    figure reproduction in `bench/main.ml` prints through this, so
    EXPERIMENTS.md and the bench output share a format. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Raises [Invalid_argument] on a column-count mismatch. *)

val render : t -> string
(** The title, a header line, a rule, and the rows with columns padded to
    their widest cell. *)

val print : t -> unit
(** [render] to stdout, followed by a blank line. *)

(** {1 Cell formatting helpers} *)

val cell_float : ?decimals:int -> float -> string
val cell_time_ms : Autonet_sim.Time.t -> string
val cell_time_us : Autonet_sim.Time.t -> string
val cell_mbps : float -> string

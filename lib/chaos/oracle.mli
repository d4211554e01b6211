(** The network-wide invariant oracle of the chaos campaign.

    After a fault schedule has played out and the network reports
    convergence, [check] audits the *whole* network against the paper's
    correctness goals, using only observable state — the forwarding tables
    actually loaded in the switch hardware, the skeptic hold-downs the port
    monitors would impose, the simulation engine's event queue:

    - every live component converged on a single epoch with identical
      topology reports, agreeing with the pure reference computation;
    - the loaded tables are deadlock-free (Dally & Seitz, {!Deadlock});
    - every surviving pair of attachment points (control processors, and
      host ports in the [Host] state) is delivered by the loaded tables
      whichever alternative ports the switches choose
      ({!Verify.undelivered}, one pass per destination);
    - every switch that took the incremental (delta) reconfiguration path
      loaded exactly what the full recompute of its complete report
      yields — table, switch number and root deadlock verdict;
    - no skeptic hold-down escaped its configured cap;
    - the engine's pending-event count is bounded (no leaked timers).

    Violations are data so campaigns can count, compare and print them. *)

open Autonet_core

type violation =
  | Not_converged
      (** the network never reached {!Autonet.Network.converged} within the
          campaign timeout; all other checks are skipped *)
  | Reference_mismatch
      (** a switch's loaded state disagrees with the pure reference
          computation on the live topology *)
  | Table_deadlock of string
      (** the loaded tables' channel dependency graph has a cycle; the
          string is the pretty-printed witness *)
  | Unreachable of {
      src : Graph.endpoint;
      dst : Graph.endpoint;
      outcome : string;
          (** the witness walk along the first failing alternative,
              pretty-printed ({!Verify.pp_outcome}) *)
    }
  | Skeptic_unbounded of {
      switch : Graph.switch;
      port : Graph.port;
      hold : Autonet_sim.Time.t;
      cap : Autonet_sim.Time.t;
    }
  | Event_queue_leak of { pending : int; bound : int; queue : int }
      (** [pending] live events exceeded [bound]; [queue] includes the
          lazily-cancelled backlog, for diagnosis *)
  | Delta_mismatch of { switch : Graph.switch; what : string }
      (** the switch committed this epoch through the delta fast path and
          what it loaded differs from a full from-scratch recompute of
          its complete report — [what] names the diverging artifact
          ("forwarding table", "switch number", "deadlock verdict") *)
  | Check_raised of string
      (** an invariant check (the oracle itself, or a campaign hook)
          raised an exception instead of returning violations; the
          payload is [Printexc.to_string] of it.  {!Autonet_chaos.Chaos}
          converts the exception into this violation so the failing
          schedule still produces a verdict and a full reproducer
          artifact — telemetry snapshot included — rather than
          unwinding the campaign. *)

val label : violation -> string
(** Short stable tag ("not-converged", "deadlock", ...) used in verdict
    lines, which must be identical across domain counts. *)

val pp_violation : Format.formatter -> violation -> unit

val check :
  ?pool:Autonet_parallel.Pool.t -> Autonet.Network.t -> violation list
(** Run every invariant against the network's current state.  Returns [[]]
    when all hold.  If the network is not converged the result is
    [[Not_converged]] alone — the other invariants are only meaningful at
    quiescence.  Violations are reported in a deterministic order. *)

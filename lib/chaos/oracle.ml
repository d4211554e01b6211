open Autonet_core
module N = Autonet.Network
module Autopilot = Autonet_autopilot.Autopilot
module Port_state = Autonet_autopilot.Port_state
module Params = Autonet_autopilot.Params
module Engine = Autonet_sim.Engine
module Time = Autonet_sim.Time

type violation =
  | Not_converged
  | Reference_mismatch
  | Table_deadlock of string
  | Unreachable of {
      src : Graph.endpoint;
      dst : Graph.endpoint;
      outcome : string;
    }
  | Skeptic_unbounded of {
      switch : Graph.switch;
      port : Graph.port;
      hold : Time.t;
      cap : Time.t;
    }
  | Event_queue_leak of { pending : int; bound : int; queue : int }
  | Delta_mismatch of { switch : Graph.switch; what : string }
  | Check_raised of string

let label = function
  | Not_converged -> "not-converged"
  | Reference_mismatch -> "reference-mismatch"
  | Table_deadlock _ -> "deadlock"
  | Unreachable _ -> "unreachable"
  | Skeptic_unbounded _ -> "skeptic-cap"
  | Event_queue_leak _ -> "event-leak"
  | Delta_mismatch _ -> "delta-mismatch"
  | Check_raised _ -> "check-raised"

let pp_violation ppf = function
  | Not_converged -> Format.fprintf ppf "network did not converge"
  | Reference_mismatch ->
    Format.fprintf ppf
      "loaded state disagrees with the reference computation"
  | Table_deadlock cycle ->
    Format.fprintf ppf "loaded tables can deadlock: %s" cycle
  | Unreachable { src = ss, sp; dst = ds, dp; outcome } ->
    Format.fprintf ppf "s%d.p%d cannot reach s%d.p%d: %s" ss sp ds dp outcome
  | Skeptic_unbounded { switch; port; hold; cap } ->
    Format.fprintf ppf "s%d.p%d skeptic hold %a exceeds cap %a" switch port
      Time.pp hold Time.pp cap
  | Event_queue_leak { pending; bound; queue } ->
    Format.fprintf ppf
      "engine holds %d pending events (bound %d, queue incl. cancelled %d)"
      pending bound queue
  | Delta_mismatch { switch; what } ->
    Format.fprintf ppf
      "s%d: delta fast path diverged from the full recompute: %s" switch what
  | Check_raised exn ->
    Format.fprintf ppf "an invariant check raised instead of reporting: %s"
      exn

(* --- Individual invariants --- *)

(* Each powered switch keeps a bounded set of live events: the periodic
   status sampler and connectivity probes (one per port), hold-down and
   retransmission timers (at most one in flight per port per protocol
   task), and a few one-shot autopilot timers.  8 slots per port plus a
   small per-switch constant is a generous static envelope; anything past
   it means some code path schedules without cancelling. *)
let pending_bound net =
  let g = N.graph net in
  let powered = ref 0 in
  for s = 0 to Graph.switch_count g - 1 do
    if Autopilot.powered (N.autopilot net s) then incr powered
  done;
  128 + (!powered * 8 * (Graph.max_ports g + 2))

let check_skeptics net =
  let g = N.graph net in
  let p = N.params net in
  let cap (sk : Params.skeptic) = Time.max sk.initial_hold sk.max_hold in
  let status_cap = cap p.status_skeptic
  and conn_cap = cap p.conn_skeptic in
  let out = ref [] in
  for s = Graph.switch_count g - 1 downto 0 do
    let pilot = N.autopilot net s in
    if Autopilot.powered pilot then
      List.iter
        (fun (port, status_hold, conn_hold) ->
          if status_hold > status_cap then
            out :=
              Skeptic_unbounded
                { switch = s; port; hold = status_hold; cap = status_cap }
              :: !out;
          if conn_hold > conn_cap then
            out :=
              Skeptic_unbounded
                { switch = s; port; hold = conn_hold; cap = conn_cap }
              :: !out)
        (List.rev (Autopilot.skeptic_holds pilot))
  done;
  !out

let check_queue net =
  let engine = N.engine net in
  let pending = Engine.pending engine in
  let bound = pending_bound net in
  if pending > bound then
    [ Event_queue_leak
        { pending; bound; queue = Engine.queue_length engine } ]
  else []

(* Attachment points a packet can originate from or be addressed to: the
   control processor of every component member, plus every host port the
   switch actually classified [Host] (a port still serving its post-reboot
   probation is not yet enabled in the loaded table, so walking to it
   would be a false alarm — the paper treats host attachment leniently). *)
let component_endpoints net comp =
  let g = N.graph net in
  List.concat_map
    (fun s ->
      let pilot = N.autopilot net s in
      let hosts =
        List.filter_map
          (fun (att : Graph.host_attachment) ->
            if
              att.switch = s
              && Port_state.equal
                   (Autopilot.port_state pilot ~port:att.switch_port)
                   Port_state.Host
            then Some (s, att.switch_port)
            else None)
          (Graph.hosts g)
      in
      (s, 0) :: hosts)
    comp

(* The assignment a switch loads is keyed by the switches of its *report*
   graph ([Topology_report.to_graph]), whose indices are report-local, not
   the physical simulation indices.  Translate through UIDs, which both
   graphs share. *)
let check_component net live vnet comp acc =
  match comp with
  | [] -> acc
  | first :: _ -> (
    let pilot = N.autopilot net first in
    match (Autopilot.assignment pilot, Autopilot.complete_report pilot) with
    | None, _ | _, None -> Reference_mismatch :: acc
    | Some asg, Some report ->
      let rg = Topology_report.to_graph report in
      let addr_of ds dp =
        match Graph.switch_of_uid rg (Graph.uid live ds) with
        | Some rs -> Some (Address_assign.address asg rs dp)
        | None -> None
      in
      let endpoints = component_endpoints net comp in
      List.fold_left
        (fun acc (src : Graph.endpoint) ->
          List.fold_left
            (fun acc ((ds, dp) as dst : Graph.endpoint) ->
              if src = dst then acc
              else
                match addr_of ds dp with
                | None ->
                  Unreachable
                    { src; dst; outcome = "destination not in the report" }
                  :: acc
                | Some addr -> (
                  match Verify.walk_unicast vnet ~from:src ~dst:addr with
                  | Verify.Delivered { at_switch; out_port }, _
                    when at_switch = ds && out_port = dp ->
                    acc
                  | outcome, _ ->
                    Unreachable
                      { src;
                        dst;
                        outcome =
                          Format.asprintf "%a" Verify.pp_outcome outcome
                      }
                    :: acc))
            acc endpoints)
        acc endpoints)

(* Every switch that committed this epoch through the delta fast path must
   have loaded *exactly* what the full recompute of its complete report
   yields — same forwarding table bit for bit, same switch number, and (at
   the root) the same deadlock verdict.  This is the oracle half of the
   delta path's correctness argument: the classifier only has to be sound,
   and any divergence at all surfaces here as a violation. *)
let check_delta net =
  let g = N.graph net in
  let out = ref [] in
  for s = Graph.switch_count g - 1 downto 0 do
    let pilot = N.autopilot net s in
    if Autopilot.powered pilot then begin
      match Autopilot.delta_spec pilot with
      | None -> ()
      | Some spec -> (
        match Autopilot.complete_report pilot with
        | None ->
          out :=
            Delta_mismatch { switch = s; what = "no complete report" } :: !out
        | Some report -> (
          let rg = Topology_report.to_graph report in
          match Graph.switch_of_uid rg (Autopilot.uid pilot) with
          | None ->
            out :=
              Delta_mismatch { switch = s; what = "not in own report" } :: !out
          | Some me ->
            let tree = Spanning_tree.compute rg ~member:me in
            let updown = Updown.orient rg tree in
            let routes = Routes.compute rg tree updown in
            let assignment =
              Address_assign.make rg
                (List.filter_map
                   (fun (d : Topology_report.switch_desc) ->
                     match Graph.switch_of_uid rg d.uid with
                     | Some rs -> Some (rs, d.proposed_number)
                     | None -> None)
                   (Topology_report.switches report))
            in
            let full = Tables.build rg tree updown routes assignment me in
            if not (Tables.equal_spec full spec) then
              out :=
                Delta_mismatch { switch = s; what = "forwarding table" }
                :: !out;
            if Autopilot.switch_number pilot <> Address_assign.number assignment me
            then
              out :=
                Delta_mismatch { switch = s; what = "switch number" } :: !out;
            (match Autopilot.root_verdict pilot with
            | None -> ()
            | Some v ->
              let all = Tables.build_all rg tree updown routes assignment in
              let fv = Deadlock.check_tables rg all in
              let agree =
                match (v, fv) with
                | Deadlock.Acyclic, Deadlock.Acyclic
                | Deadlock.Cycle _, Deadlock.Cycle _ -> true
                | _ -> false
              in
              if not agree then
                out :=
                  Delta_mismatch { switch = s; what = "deadlock verdict" }
                  :: !out)))
    end
  done;
  !out

let check ?pool net =
  if not (N.converged net) then [ Not_converged ]
  else begin
    let reference =
      if N.verify_against_reference net then [] else [ Reference_mismatch ]
    in
    let live, comps = N.live net in
    let specs =
      List.concat_map (List.map (fun s -> N.loaded_spec net s)) comps
    in
    let deadlock =
      match Deadlock.check_tables ?pool live specs with
      | Deadlock.Acyclic -> []
      | Deadlock.Cycle _ as c ->
        [ Table_deadlock (Format.asprintf "%a" Deadlock.pp_result c) ]
    in
    let vnet = Verify.make live specs in
    let unreachable =
      List.rev
        (List.fold_left
           (fun acc comp -> check_component net live vnet comp acc)
           [] comps)
    in
    reference @ deadlock @ unreachable @ check_delta net @ check_skeptics net
    @ check_queue net
  end

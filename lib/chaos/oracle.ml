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
  | Configuration_mismatch of { switch : Graph.switch; what : string }
  | Check_raised of string

let label = function
  | Not_converged -> "not-converged"
  | Reference_mismatch -> "reference-mismatch"
  | Table_deadlock _ -> "deadlock"
  | Unreachable _ -> "unreachable"
  | Skeptic_unbounded _ -> "skeptic-cap"
  | Event_queue_leak _ -> "event-leak"
  | Configuration_mismatch _ -> "configuration-mismatch"
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
  | Configuration_mismatch { switch; what } ->
    Format.fprintf ppf "s%d: %s differs from its component's reference" switch
      what
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

(* Every surviving pair of the component's endpoints, addressed by the
   reference assignment.  Its switches are those of the report graph
   ([Topology_report.to_graph]), whose indices are report-local, not the
   physical simulation indices: translate through UIDs, which both graphs
   share.  The endpoints ascend, so source-major order is pair order. *)
let check_delivery net live vnet (comp, _, (c : Configuration.t)) =
  let endpoints = component_endpoints net comp in
  let address ((ds, dp) as dst) =
    let rs = Option.get (Graph.switch_of_uid c.graph (Graph.uid live ds)) in
    (dst, Address_assign.address c.assignment rs dp)
  in
  List.map
    (fun (src, dst, o) ->
      Unreachable
        { src; dst; outcome = Format.asprintf "%a" Verify.pp_outcome o })
    (Verify.undelivered vnet ~sources:endpoints
       ~dsts:(List.map address endpoints))

(* Every member computes its table from the component's one complete
   report (paper 6.6.4), so one configuration is every member's
   reference.  A member must hold its reference table as a load leaves it
   (copied to the switch, the ports that are s.host now enabled and the
   rest removed) and its reference number, and a root verdict must agree
   with the reference tables' — whichever path produced them. *)
let check_configuration ?pool net (comp, loaded, (c : Configuration.t)) =
  let max_ports = Graph.max_ports (N.graph net) in
  let tables = Array.of_list (Configuration.tables ?pool c) in
  let verdict =
    lazy (Deadlock.check_tables ?pool c.graph (Array.to_list tables))
  in
  let member s spec =
    let pilot = N.autopilot net s in
    let me = Option.get (Graph.switch_of_uid c.graph (Autopilot.uid pilot)) in
    let number = Option.get (Address_assign.number c.assignment me) in
    let expected = Tables.copy ~switch:s tables.(me) in
    for port = 1 to max_ports do
      if Port_state.equal (Autopilot.port_state pilot ~port) Port_state.Host
      then Tables.add_host_port expected ~number ~port
      else Tables.remove_host_port expected ~number ~port
    done;
    let verdict_agrees =
      match Autopilot.root_verdict pilot with
      | None -> true
      | Some v ->
        (v = Deadlock.Acyclic) = (Lazy.force verdict = Deadlock.Acyclic)
    in
    List.filter_map
      (fun (ok, what) ->
        if ok then None else Some (Configuration_mismatch { switch = s; what }))
      [ (Tables.equal_spec spec expected, "forwarding table");
        (Autopilot.switch_number pilot = Some number, "switch number");
        (verdict_agrees, "deadlock verdict") ]
  in
  List.concat (List.map2 member comp loaded)

let check ?pool net =
  if not (N.converged net) then [ Not_converged ]
  else begin
    let reference =
      if N.verify_against_reference net then [] else [ Reference_mismatch ]
    in
    let live, comps = N.live net in
    (* [converged]: a component's members share one complete report, and
       it names every member. *)
    let comps =
      List.map
        (fun comp ->
          let pilot = N.autopilot net (List.hd comp) in
          ( comp,
            List.map (N.loaded_spec net) comp,
            Configuration.of_report
              (Option.get (Autopilot.complete_report pilot)) ))
        comps
    in
    let specs = List.concat_map (fun (_, loaded, _) -> loaded) comps in
    let deadlock =
      match Deadlock.check_tables ?pool live specs with
      | Deadlock.Acyclic -> []
      | Deadlock.Cycle _ as c ->
        [ Table_deadlock (Format.asprintf "%a" Deadlock.pp_result c) ]
    in
    let vnet = Verify.make live specs in
    let unreachable = List.concat_map (check_delivery net live vnet) comps in
    let configuration = List.concat_map (check_configuration ?pool net) comps in
    reference @ deadlock @ unreachable @ configuration @ check_skeptics net
    @ check_queue net
  end

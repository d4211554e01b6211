(* Step 5 as each switch computed it alone, from its own previous commit:
   the per-switch chain the network's epoch cache replaced, kept as the
   reference the cache must reproduce event for event and table for
   table. *)

open Autonet_core
module Event = Autonet_autopilot.Event
module Pool = Autonet_parallel.Pool

type result = {
  committed : Delta.committed;  (** what this switch keeps for next time *)
  table : Tables.spec;  (** what it loads *)
  events : Event.t list;  (** the step-5 events it logs, in order *)
}

(* The events {!run} reproduces, as a filter over a switch's log. *)
let step5 = function
  | Event.Delta_fallback _ | Event.Tables_computed _ | Event.Delta_applied _
  | Event.Root_verified _ | Event.Root_deadlock _ ->
    true
  | _ -> false

(* [root]: the switch believes itself the epoch's root.  [None] when the
   report does not describe [uid]. *)
let run ~prev ~root report uid =
  let g = Topology_report.to_graph report in
  match Graph.switch_of_uid g uid with
  | None -> None
  | Some me ->
    let tree = Spanning_tree.compute g ~member:me in
    let assignment =
      Address_assign.make g
        (List.filter_map
           (fun (d : Topology_report.switch_desc) ->
             Option.map
               (fun s -> (s, d.proposed_number))
               (Graph.switch_of_uid g d.uid))
           (Topology_report.switches report))
    in
    let events = ref [] in
    let emit e = events := e :: !events in
    let computed () =
      emit
        (Event.Tables_computed
           { switches = Topology_report.size report;
             number =
               Option.value ~default:(-1) (Address_assign.number assignment me)
           })
    in
    let pool = if root then Some (Pool.default ()) else None in
    let domains = Pool.domains (Pool.default ()) in
    let verdict tables = function
      | Deadlock.Acyclic -> emit (Event.Root_verified { tables; domains })
      | Deadlock.Cycle _ as r ->
        emit
          (Event.Root_deadlock
             { detail = Format.asprintf "%a" Deadlock.pp_result r })
    in
    let delta =
      match prev with
      | Some prev when Delta.enabled () -> (
        match Delta.classify ~prev ~graph:g ~tree ~assignment ~me with
        | Delta.Structural reason ->
          emit (Event.Delta_fallback { reason });
          None
        | Delta.Tree_preserving ch ->
          Some (Delta.apply ?pool ~prev ~graph:g ~tree ~assignment ~me ch))
      | Some _ | None -> None
    in
    let committed =
      match delta with
      | Some (c, st) ->
        computed ();
        emit
          (Event.Delta_applied
             { rebuilt = st.Delta.st_rebuilt;
               patched = st.st_patched;
               reused = st.st_reused;
               dests = st.st_dests;
               deadlock_full = st.st_deadlock_full });
        Option.iter
          (verdict
             (match c.Delta.c_all with Some a -> Array.length a | None -> 0))
          st.st_verdict;
        c
      | None ->
        let updown = Updown.orient g tree in
        let routes = Routes.compute g tree updown in
        let own = Tables.build g tree updown routes assignment me in
        computed ();
        let all =
          Option.map
            (fun pool ->
              let all = Tables.build_all ~pool g tree updown routes assignment in
              verdict (List.length all) (Deadlock.check_tables ~pool g all);
              all)
            pool
        in
        Delta.commit_full ~graph:g ~tree ~updown ~routes ~assignment ~own ~all
    in
    Some { committed; table = committed.c_own; events = List.rev !events }

open Autonet_core
module Pool = Autonet_parallel.Pool

(* A root-shaped commit (every member's table) with the root's verdict
   on it. *)
type artifacts = {
  commit : Delta.committed;
  all : Tables.spec array;  (* [commit.c_all], by switch *)
  verdict : Deadlock.result;
}

(* The delta step from one previous entry: the classification any
   non-root member sees, and the root-shaped apply once a tree-preserving
   switch asks for it. *)
type plan = {
  cls : Delta.classification;
  mutable applied : (artifacts * Delta.stats) option;
}

type entry = {
  id : int;
  report : Topology_report.t;
  graph : Graph.t;
  tree : Spanning_tree.t;
  assignment : Address_assign.t;
  mutable canonical : artifacts option;
      (* the one commit every switch of the report adopts: the first
         artifacts computed for it, by a plan or in full *)
  mutable plans : (int * plan) list;
      (* keyed by the previous entry's id: a pointer would keep every
         predecessor alive *)
  mutable refs : int;  (* switch commits pointing here *)
}

type commit = { entry : entry; adopted : artifacts; as_root : bool }

type stats = { live : int; lookups : int; hits : int; fulls : int; deltas : int }

type t = {
  mutable entries : entry list;
  mutable next_id : int;
  mutable lookups : int;
  mutable hits : int;
  mutable fulls : int;
  mutable deltas : int;
}

let create () =
  { entries = [];
    next_id = 0;
    lookups = 0;
    hits = 0;
    fulls = 0;
    deltas = 0 }

let stats t =
  { live = List.length t.entries;
    lookups = t.lookups;
    hits = t.hits;
    fulls = t.fulls;
    deltas = t.deltas }

let find t report =
  match List.find_opt (fun e -> e.report == report) t.entries with
  | Some _ as hit -> hit
  | None ->
    let n = Topology_report.size report in
    List.find_opt
      (fun e ->
        Topology_report.size e.report = n
        && Topology_report.equal e.report report)
      t.entries

let reports t = List.map (fun e -> e.report) t.entries

let tables t report =
  Option.bind (find t report) (fun e -> Option.map (fun a -> a.all) e.canonical)

let root_shaped commit verdict =
  match commit.Delta.c_all with
  | Some all -> { commit; all; verdict }
  | None -> invalid_arg "Epoch_cache: a root-shaped commit without its tables"

(* The full step: every table, verified, on the domain pool. *)
let full t e =
  t.fulls <- t.fulls + 1;
  let pool = Pool.default () in
  let g = e.graph and tree = e.tree in
  let updown = Updown.orient g tree in
  let routes = Routes.compute g tree updown in
  let all = Tables.build_all ~pool g tree updown routes e.assignment in
  let verdict = Deadlock.check_tables ~pool g all in
  let root = Spanning_tree.root tree in
  let own = List.find (fun sp -> Tables.switch sp = root) all in
  root_shaped
    (Delta.commit_full ~graph:g ~tree ~updown ~routes ~assignment:e.assignment
       ~own ~all:(Some all))
    verdict

let canonical t e =
  match e.canonical with
  | Some a -> a
  | None ->
    let a = full t e in
    e.canonical <- Some a;
    a

(* [p]'s commit as the switch that made it would have kept it, computing
   alone: only a switch that was root then holds every table and the
   certificate. *)
let own_view p =
  let c = p.adopted.commit in
  if p.as_root then c else { c with Delta.c_all = None; c_cert = None }

let plan e p =
  match List.assoc_opt p.entry.id e.plans with
  | Some pl -> pl
  | None ->
    let root = Spanning_tree.root e.tree in
    let me =
      Option.value ~default:root
        (List.find_opt (fun s -> s <> root) (Spanning_tree.members e.tree))
    in
    let pl =
      { cls =
          Delta.classify ~prev:p.adopted.commit ~graph:e.graph
            ~tree:e.tree ~assignment:e.assignment ~me;
        applied = None }
    in
    e.plans <- (p.entry.id, pl) :: e.plans;
    pl

let apply t e pl p ch =
  match pl.applied with
  | Some r -> r
  | None ->
    t.deltas <- t.deltas + 1;
    let commit, stats =
      Delta.apply ~pool:(Pool.default ())
        ~prev:p.adopted.commit ~graph:e.graph ~tree:e.tree
        ~assignment:e.assignment ~me:(Spanning_tree.root e.tree) ch
    in
    (* A root-shaped apply always reaches a verdict. *)
    let a = root_shaped commit (Option.get stats.Delta.st_verdict) in
    pl.applied <- Some (a, stats);
    if Option.is_none e.canonical then e.canonical <- Some a;
    (a, stats)

let register t report graph tree assignment =
  let e =
    { id = t.next_id;
      report;
      graph;
      tree;
      assignment;
      canonical = None;
      plans = [];
      refs = 0 }
  in
  t.next_id <- t.next_id + 1;
  t.entries <- e :: t.entries;
  e

(* Entries die with their last commit, and with them every plan that
   started from them. *)
let release t = function
  | None -> ()
  | Some p ->
    let e = p.entry in
    e.refs <- e.refs - 1;
    if e.refs = 0 then begin
      t.entries <- List.filter (fun x -> x != e) t.entries;
      List.iter
        (fun x -> x.plans <- List.filter (fun (id, _) -> id <> e.id) x.plans)
        t.entries
    end

type outcome = {
  report : Topology_report.t;
  number : int option;
  table : Tables.spec;
  fallback : string option;
  delta : Delta.stats option;
  verdict : (Deadlock.result * int) option;
}

let outcome_at report me assignment table =
  { report;
    number = Address_assign.number assignment me;
    table;
    fallback = None;
    delta = None;
    verdict = None }

let finish t report ~uid ~root ~prev ~clock ~on_span =
  let timed name f =
    let c0 = clock () in
    let x = f () in
    on_span name (clock () -. c0);
    x
  in
  t.lookups <- t.lookups + 1;
  let work = t.next_id + t.fulls + t.deltas in
  let delta_on = Delta.enabled () in
  let shared e me =
    let at_root = Spanning_tree.root e.tree = me in
    let cls =
      match prev with
      | Some p when delta_on ->
        let cls =
          timed "delta_classify" (fun () ->
              if at_root then
                Delta.classify ~prev:(own_view p) ~graph:e.graph ~tree:e.tree
                  ~assignment:e.assignment ~me
              else (plan e p).cls)
        in
        Some (cls, p)
      | Some _ | None -> None
    in
    let full fallback =
      let a = canonical t e in
      { (outcome_at e.report me e.assignment a.all.(me)) with
        fallback;
        verdict = (if root then Some (a.verdict, Array.length a.all) else None) }
    in
    let o =
      match cls with
      | Some (Delta.Tree_preserving ch, p) ->
        let a, stats =
          timed "delta_routes" (fun () -> apply t e (plan e p) p ch)
        in
        let table, stats =
          timed "delta_tables" (fun () ->
              ( a.all.(me),
                if at_root then stats else Delta.non_root_stats ch stats me ))
        in
        let verdict =
          if at_root then
            timed "delta_deadlock" (fun () ->
                Some (a.verdict, Array.length a.all))
          else None
        in
        { (outcome_at e.report me e.assignment table) with
          delta = Some stats;
          verdict }
      | Some (Delta.Structural reason, _) -> full (Some reason)
      | None -> full None
    in
    if t.next_id + t.fulls + t.deltas = work then t.hits <- t.hits + 1;
    e.refs <- e.refs + 1;
    release t prev;
    (o, Some { entry = e; adopted = canonical t e; as_root = root })
  in
  (* A closed report can still describe several components: the protocol
     never floods one, but a report is wire input.  Nobody shares it, and
     it commits nothing a later epoch could reuse ([Delta.classify]
     refuses a disconnected graph in any case). *)
  let unshared g tree assignment me =
    let fallback =
      match prev with
      | Some p when delta_on -> (
        match
          timed "delta_classify" (fun () ->
              Delta.classify ~prev:(own_view p) ~graph:g ~tree ~assignment ~me)
        with
        | Delta.Structural reason -> Some reason
        | Delta.Tree_preserving _ -> assert false)
      | Some _ | None -> None
    in
    let updown = Updown.orient g tree in
    let routes = Routes.compute g tree updown in
    let table = Tables.build g tree updown routes assignment me in
    let verdict =
      if root then begin
        let pool = Pool.default () in
        let all = Tables.build_all ~pool g tree updown routes assignment in
        Some (Deadlock.check_tables ~pool g all, List.length all)
      end
      else None
    in
    release t prev;
    ( { (outcome_at report me assignment table) with fallback; verdict },
      None )
  in
  match find t report with
  | Some e -> Option.map (shared e) (Graph.switch_of_uid e.graph uid)
  | None -> (
    let g = Topology_report.to_graph report in
    match Graph.switch_of_uid g uid with
    | None -> None
    | Some me ->
      let tree = Spanning_tree.compute g ~member:me in
      let assignment =
        Address_assign.make g (Topology_report.proposals report g)
      in
      if List.length (Spanning_tree.members tree) = Graph.switch_count g then
        Some (shared (register t report g tree assignment) me)
      else Some (unshared g tree assignment me))

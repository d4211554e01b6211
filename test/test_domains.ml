(* A simulated network computes step 5 on the domain that steps it, so
   it spawns no domain, however many AUTONET_DOMAINS asks for.  OCaml 5
   numbers domains in spawn order: two domains spawned and joined around
   a boot and a reconfiguration get ids exactly one apart when the
   network spawned none in between.  This suite is its own executable,
   so no earlier test has created the process-wide domain pool. *)

module B = Autonet_topo.Builders
module F = Autonet_topo.Faults
module N = Autonet.Network

let spawned_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let test_network_spawns_no_domain () =
  let before = spawned_id () in
  let net =
    N.create ~params:Autonet_autopilot.Params.fast ~seed:1L
      (B.torus ~rows:4 ~cols:4 ())
  in
  let converge what =
    if N.run_until_converged ~timeout:(Autonet_sim.Time.s 60) net = None then
      Alcotest.failf "torus:4,4 did not converge (%s)" what
  in
  N.start net;
  converge "boot";
  let l = (Testlib.non_tree_link (N.graph net)).Autonet_core.Graph.id in
  N.apply_fault net (F.Link_down l);
  converge "link down";
  N.apply_fault net (F.Link_up l);
  converge "link up";
  let after = spawned_id () in
  Alcotest.(check int)
    "domain ids from the probe before the boot to the probe after the \
     flap (1: the network spawned none)"
    1 (after - before)

let () =
  Unix.putenv "AUTONET_DOMAINS" "4";
  Alcotest.run "domains"
    [ ( "network",
        [ Alcotest.test_case "a simulated network spawns no domain" `Quick
            test_network_spawns_no_domain ] ) ]

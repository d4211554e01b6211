(* The Figure 9 broadcast deadlock, byte for byte: a long unicast holds
   link W-Y while a broadcast needs it, the broadcast's other copy holds
   Z-C which the unicast needs, and flow control freezes the loop solid —
   unless the transmitter ignores stop for broadcasts and the FIFO is big
   enough to absorb one whole broadcast packet (paper 6.2, 6.6.6).

     dune exec examples/broadcast_deadlock.exe *)

open Autonet_core
open Autonet_net
module B = Autonet_topo.Builders
module FS = Autonet_dataplane.Flit_sim

let configure (t : B.t) =
  let c = Configuration.boot t.B.graph in
  (c.graph, c.assignment, Configuration.tables c)

let scenario ~fifo ~ignore_stop =
  let topo, (a, b, c) = B.figure9 () in
  let g, asg, specs = configure topo in
  let cfg =
    { FS.default_config with
      FS.fifo_capacity = fifo;
      broadcast_ignore_stop = ignore_stop }
  in
  let fs = FS.create ~config:cfg g specs in
  let c_addr = Address_assign.address asg (fst c) (snd c) in
  (* Broadcast from A first; the long B->C unicast 15 slots later grabs
     W-Y before the broadcast gets there, while the broadcast grabs Z-C
     first: the paper's interleaving. *)
  ignore (FS.inject fs ~from:a ~dst:Short_address.broadcast_hosts ~bytes:1500);
  FS.run fs ~slots:15;
  ignore (FS.inject fs ~from:b ~dst:c_addr ~bytes:2500);
  FS.run fs ~slots:60_000;
  fs

let describe name fs =
  Format.printf "%-46s %s, %d packet deliveries, %d in flight@." name
    (if FS.deadlocked fs then "DEADLOCK" else "no deadlock")
    (List.length (FS.deliveries fs))
    (FS.in_flight fs)

let () =
  Format.printf
    "Figure 9: switches V W X Y Z; tree links V-W V-X X-Z W-Y, cross link Y-Z;@.";
  Format.printf "hosts A@V, B@W, C@Z.  B sends 2500 bytes to C; A broadcasts 1500 bytes.@.@.";
  describe "unicast-sized FIFO (1024), stop obeyed:"
    (scenario ~fifo:1024 ~ignore_stop:false);
  Format.printf
    "  -> the broadcast stalls at W, backpressure freezes V, the copy headed@.";
  Format.printf
    "     for C never finishes, Z-C never frees, B's packet never moves: stuck.@.@.";
  describe "the paper's fix (4096 FIFO + ignore stop):"
    (scenario ~fifo:4096 ~ignore_stop:true);
  Format.printf
    "  -> V pushes the whole broadcast into W's FIFO; C finishes receiving;@.";
  Format.printf "     everything drains.@.@.";
  describe "half a fix (1024 FIFO + ignore stop):"
    (scenario ~fifo:1024 ~ignore_stop:true);
  Format.printf
    "  -> no deadlock, but the 1500-byte broadcast overflows the 1024-byte@.";
  Format.printf
    "     FIFO and is corrupted: why the paper also grew the FIFO to 4096.@."

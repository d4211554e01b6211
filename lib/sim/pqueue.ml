(* A heap of runs.  A run is the FIFO of values queued for one time, a
   chain of cells; the heap orders runs by time and then by [ord], the
   number of runs opened before it, so values leave in (time, insertion)
   order and a take that leaves its run non-empty sifts nothing.  The
   heap keeps each run's (time, ord) key beside it, so a sift reads no
   run.

   An add joins the run that [index] names at its time's slot when that
   run has its time, and otherwise opens a run, which the slot then
   names.  The index names live runs only (a run that empties clears its
   slot), and a run opened later takes the slot from an earlier one, so
   the run an add joins is the newest of its time: every value queued
   before at that time still leaves first.  A collision costs an extra
   run, never the order.

   Cells and runs are slots of [int] arrays, recycled through free lists
   ([next] chains the free cells, [first] the free runs; -1 ends a chain
   and marks an empty index slot), so neither an add (below a capacity
   doubling) nor a take allocates.  Live runs never outnumber live
   cells, so the run arrays share the cells' capacity. *)

(* Prime, so any [slots] successive instants of a periodic timer fill
   distinct slots unless its period is a multiple of [slots]. *)
let slots = 509

type 'a t = {
  mutable values : 'a array;  (* cell -> its value *)
  mutable next : int array;  (* cell -> next cell of its run or free list *)
  mutable time : int array;  (* run -> its time *)
  mutable first : int array;  (* run -> its first cell, or the next free run *)
  mutable last : int array;  (* run -> its last cell *)
  mutable keys : int array;  (* heap position -> time of its run *)
  mutable ords : int array;  (* heap position -> runs opened before its run *)
  mutable heap : int array;  (* heap position -> run *)
  index : int array;  (* slot -> the run it names, or -1 *)
  mutable runs : int;
  mutable size : int;
  mutable free_cell : int;
  mutable free_run : int;
  mutable opened : int;
}

let create () =
  { values = [||]; next = [||]; time = [||]; first = [||]; last = [||];
    keys = [||]; ords = [||]; heap = [||]; index = Array.make slots (-1);
    runs = 0; size = 0; free_cell = -1; free_run = -1; opened = 0 }

let length q = q.size
let is_empty q = q.size = 0
let runs_opened q = q.opened

let slot time = (time land max_int) mod slots

(* Called when no cell is free.  The new cells and runs are chained in
   ascending order, the runs ahead of those still free; [v] fills the new
   value slots. *)
let grow q v =
  let capacity = Array.length q.next in
  let n = if capacity = 0 then 16 else 2 * capacity in
  let extend a = Array.append a (Array.make (n - capacity) 0) in
  let chain tail =
    Array.init (n - capacity) (fun i ->
        if capacity + i + 1 < n then capacity + i + 1 else tail)
  in
  let values = Array.make n v in
  Array.blit q.values 0 values 0 capacity;
  q.values <- values;
  q.next <- Array.append q.next (chain (-1));
  q.first <- Array.append q.first (chain q.free_run);
  q.time <- extend q.time;
  q.last <- extend q.last;
  q.keys <- extend q.keys;
  q.ords <- extend q.ords;
  q.heap <- extend q.heap;
  q.free_cell <- capacity;
  q.free_run <- capacity

let place q i time ord r =
  q.keys.(i) <- time;
  q.ords.(i) <- ord;
  q.heap.(i) <- r

(* The sifts read and write heap positions unchecked: they touch
   positions below [q.runs] and, while adding, [q.runs] itself, and the
   heap arrays hold the capacity, which exceeds the live runs before an
   add.  The bounds checks cost the all-distinct shape of the micro
   benchmark (E33) about 15% per event. *)
let key q i = Array.unsafe_get q.keys i
let ord_at q i = Array.unsafe_get q.ords i

let[@inline] move q ~from i =
  Array.unsafe_set q.keys i (key q from);
  Array.unsafe_set q.ords i (ord_at q from);
  Array.unsafe_set q.heap i (Array.unsafe_get q.heap from)

(* Move parents down until [(time, ord)] fits at heap position [i];
   returns the position it fits at.  [ord] breaks ties only, so it is
   read only on a tie.  [time] is annotated [int]: at an unknown type
   [<] is the polymorphic compare, a C call that doubles the cost of a
   sift. *)
let rec sift_up q (time : int) ord i =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    let t = key q parent in
    if time < t || (time = t && ord < ord_at q parent) then begin
      move q ~from:parent i;
      sift_up q time ord parent
    end
    else i

(* Move the earlier child up until [(time, ord)] fits at position [i]. *)
let rec sift_down q (time : int) ord i =
  let left = (2 * i) + 1 in
  if left >= q.runs then i
  else
    let right = left + 1 in
    let c =
      if right < q.runs then
        let tl = key q left and tr = key q right in
        if tr < tl || (tr = tl && ord_at q right < ord_at q left) then right
        else left
      else left
    in
    let t = key q c in
    if t < time || (t = time && ord_at q c < ord) then begin
      move q ~from:c i;
      sift_down q time ord c
    end
    else i

let add q ~time v =
  if q.free_cell < 0 then grow q v;
  let c = q.free_cell in
  q.free_cell <- q.next.(c);
  q.values.(c) <- v;
  q.next.(c) <- -1;
  q.size <- q.size + 1;
  let s = slot time in
  let r = q.index.(s) in
  if r >= 0 && q.time.(r) = time then begin
    q.next.(q.last.(r)) <- c;
    q.last.(r) <- c
  end
  else begin
    let r = q.free_run and ord = q.opened in
    q.free_run <- q.first.(r);
    q.opened <- ord + 1;
    q.time.(r) <- time;
    q.first.(r) <- c;
    q.last.(r) <- c;
    q.index.(s) <- r;
    place q (sift_up q time ord q.runs) time ord r;
    q.runs <- q.runs + 1
  end

let check_nonempty q what =
  if q.size = 0 then invalid_arg ("Pqueue." ^ what ^ ": empty queue")

let min_time q =
  check_nonempty q "min_time";
  q.keys.(0)

let top q =
  check_nonempty q "top";
  q.values.(q.first.(q.heap.(0)))

(* The freed cell keeps its value until reused: at most the high-water
   mark of values stays reachable. *)
let take q =
  check_nonempty q "take";
  let r = q.heap.(0) in
  let c = q.first.(r) in
  let n = q.next.(c) in
  q.next.(c) <- q.free_cell;
  q.free_cell <- c;
  q.size <- q.size - 1;
  if n >= 0 then q.first.(r) <- n
  else begin
    let s = slot q.keys.(0) in
    if q.index.(s) = r then q.index.(s) <- -1;
    q.first.(r) <- q.free_run;
    q.free_run <- r;
    let k = q.runs - 1 in
    q.runs <- k;
    if k > 0 then begin
      let time = q.keys.(k) and ord = q.ords.(k) and moved = q.heap.(k) in
      place q (sift_down q time ord 0) time ord moved
    end
  end;
  q.values.(c)

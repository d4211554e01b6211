(* The heap orders positions by the unboxed [times] and [seqs] arrays;
   [slots] maps a heap position to the slot of [values] that holds its
   value.  Values never move while queued, so a sift writes only ints
   and pays no write barrier.  [free.(0 .. capacity - size - 1)] is the
   stack of unused slots. *)
type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable free : int array;
  mutable size : int;
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; values = [||]; free = [||];
    size = 0 }

let length q = q.size
let is_empty q = q.size = 0

(* Annotated [int]: at an unknown type [<] is the polymorphic compare, a C
   call that doubles the cost of a sift. *)
let before (t1 : int) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

(* Called when every slot is in use, so the free stack is empty and the
   new slots are exactly [capacity .. new_capacity - 1], pushed so that
   the lowest is handed out first.  [v] fills the new value slots. *)
let grow q v =
  let capacity = Array.length q.times in
  let new_capacity = if capacity = 0 then 16 else 2 * capacity in
  let extend a = Array.append a (Array.make (new_capacity - capacity) 0) in
  q.times <- extend q.times;
  q.seqs <- extend q.seqs;
  q.slots <- extend q.slots;
  let values = Array.make new_capacity v in
  Array.blit q.values 0 values 0 capacity;
  q.values <- values;
  q.free <- Array.init new_capacity (fun i -> new_capacity - 1 - i)

(* Move parents down until [(time, seq)] fits at position [i]; returns
   the position it fits at. *)
let rec sift_up q time seq i =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if before time seq q.times.(parent) q.seqs.(parent) then begin
      q.times.(i) <- q.times.(parent);
      q.seqs.(i) <- q.seqs.(parent);
      q.slots.(i) <- q.slots.(parent);
      sift_up q time seq parent
    end
    else i

(* Move the smaller child up until [(time, seq)] fits at position [i]. *)
let rec sift_down q time seq i =
  let left = (2 * i) + 1 in
  if left >= q.size then i
  else
    let right = left + 1 in
    let c =
      if
        right < q.size
        && before q.times.(right) q.seqs.(right) q.times.(left) q.seqs.(left)
      then right
      else left
    in
    if before q.times.(c) q.seqs.(c) time seq then begin
      q.times.(i) <- q.times.(c);
      q.seqs.(i) <- q.seqs.(c);
      q.slots.(i) <- q.slots.(c);
      sift_down q time seq c
    end
    else i

let place q i time seq slot =
  q.times.(i) <- time;
  q.seqs.(i) <- seq;
  q.slots.(i) <- slot

let add q ~time ~seq v =
  if q.size = Array.length q.times then grow q v;
  let slot = q.free.(Array.length q.times - q.size - 1) in
  q.values.(slot) <- v;
  place q (sift_up q time seq q.size) time seq slot;
  q.size <- q.size + 1

let check_nonempty q what =
  if q.size = 0 then invalid_arg ("Pqueue." ^ what ^ ": empty queue")

let min_time q =
  check_nonempty q "min_time";
  q.times.(0)

let top q =
  check_nonempty q "top";
  q.values.(q.slots.(0))

(* The vacated slot keeps its value until reused, as a popped heap cell
   did before: at most the high-water mark of values stays reachable. *)
let take q =
  check_nonempty q "take";
  let slot = q.slots.(0) in
  let n = q.size - 1 in
  q.size <- n;
  q.free.(Array.length q.times - n - 1) <- slot;
  if n > 0 then begin
    let time = q.times.(n) and seq = q.seqs.(n) and last = q.slots.(n) in
    place q (sift_down q time seq 0) time seq last
  end;
  q.values.(slot)

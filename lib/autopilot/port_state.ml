type t = Dead | Checking | Host | Switch_who | Switch_loop | Switch_good

let equal (a : t) b = a = b

let to_string = function
  | Dead -> "s.dead"
  | Checking -> "s.checking"
  | Host -> "s.host"
  | Switch_who -> "s.switch.who"
  | Switch_loop -> "s.switch.loop"
  | Switch_good -> "s.switch.good"

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* The arrows of Figure 8: the status sampler promotes Dead -> Checking and
   classifies Checking -> Host / Switch_who, and may demote anything to
   Dead; the connectivity monitor moves between the Switch_* states. *)
let legal_transition from into =
  match (from, into) with
  | Dead, Checking -> true
  | Checking, (Host | Switch_who) -> true
  | (Checking | Host | Switch_who | Switch_loop | Switch_good), Dead -> true
  | Switch_who, (Switch_loop | Switch_good) -> true
  | (Switch_loop | Switch_good), Switch_who -> true
  | _, _ -> false

let triggers_reconfiguration ~from ~into =
  (equal from Switch_good || equal into Switch_good) && not (equal from into)

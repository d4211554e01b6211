type command = Sync | Begin | End | Start | Stop | Host | Idhy | Panic

type slot = Data of int | Command of command

let equal_command (a : command) b = a = b

let equal_slot a b =
  match (a, b) with
  | Data x, Data y -> x = y
  | Command x, Command y -> equal_command x y
  | Data _, Command _ | Command _, Data _ -> false

let is_flow_control = function
  | Start | Stop | Host | Idhy -> true
  | Sync | Begin | End | Panic -> false

let flow_control_period = 256
let slot_ns = 80
let slots_per_km = 64.1

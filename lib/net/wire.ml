exception Truncated
exception Malformed of string

module Writer = struct
  type t = Buffer.t

  let create ?(initial_size = 64) () = Buffer.create initial_size
  let length = Buffer.length

  let u8 t v =
    assert (v >= 0 && v <= 0xFF);
    Buffer.add_char t (Char.chr v)

  let u16 t v =
    assert (v >= 0 && v <= 0xFFFF);
    u8 t (v lsr 8);
    u8 t (v land 0xFF)

  let u32 t v =
    assert (v >= 0 && v <= 0xFFFF_FFFF);
    u16 t (v lsr 16);
    u16 t (v land 0xFFFF)

  let u48 t v =
    assert (v >= 0 && v <= 0xFFFF_FFFF_FFFF);
    u16 t (v lsr 32);
    u32 t (v land 0xFFFF_FFFF)

  let u64 t v =
    u32 t (Int64.to_int (Int64.shift_right_logical v 32));
    u32 t (Int64.to_int (Int64.logand v 0xFFFF_FFFFL))

  let bytes t b = Buffer.add_bytes t b
  let string t s = Buffer.add_string t s

  let lstring t s =
    if String.length s > 0xFFFF then invalid_arg "Wire.Writer.lstring: too long";
    u16 t (String.length s);
    string t s

  let list t f l =
    let n = List.length l in
    if n > 0xFFFF then invalid_arg "Wire.Writer.list: too long";
    u16 t n;
    List.iter f l

  let contents = Buffer.contents
end

module Reader = struct
  type t = { input : string; mutable pos : int }

  let of_string input = { input; pos = 0 }

  let remaining t = String.length t.input - t.pos

  let check t n = if remaining t < n then raise Truncated

  let u8 t =
    check t 1;
    let v = Char.code t.input.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t =
    let hi = u8 t in
    let lo = u8 t in
    (hi lsl 8) lor lo

  let u32 t =
    let hi = u16 t in
    let lo = u16 t in
    (hi lsl 16) lor lo

  let u48 t =
    let hi = u16 t in
    let lo = u32 t in
    (hi lsl 32) lor lo

  let u64 t =
    let hi = u32 t in
    let lo = u32 t in
    Int64.(logor (shift_left (of_int hi) 32) (of_int lo))

  let take t n =
    check t n;
    let s = String.sub t.input t.pos n in
    t.pos <- t.pos + n;
    s

  (* [input] from [pos] and [s] agree on bytes [i .. n - 1]: eight at a
     time while a whole word remains, then byte by byte.  The words are
     compared at type [int64], unboxed, so nothing is allocated. *)
  let rec same input pos s i n =
    if i + 8 <= n then
      String.get_int64_ne input (pos + i) = String.get_int64_ne s i
      && same input pos s (i + 8) n
    else i = n || (input.[pos + i] = s.[i] && same input pos s (i + 1) n)

  let skip_prefix t s =
    let n = String.length s in
    let hit = remaining t >= n && same t.input t.pos s 0 n in
    if hit then t.pos <- t.pos + n;
    hit

  let lstring t =
    let n = u16 t in
    take t n

  let list t f =
    let n = u16 t in
    List.init n (fun _ -> f t)

  let expect_end t =
    if remaining t <> 0 then
      raise (Malformed (Printf.sprintf "%d trailing bytes" (remaining t)))
end

exception Truncated
exception Malformed of string

(* Both sides move whole fields: one capacity or bounds check per field,
   then the big-endian [Bytes.set_*_be] / [String.get_*_be] primitives. *)

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create ?(initial_size = 64) () =
    { buf = Bytes.create (Stdlib.max 0 initial_size); len = 0 }

  let length t = t.len

  (* Room for [n] more bytes: the offset they go to. *)
  let reserve t n =
    let pos = t.len in
    if pos + n > Bytes.length t.buf then begin
      let buf = Bytes.create (Stdlib.max (pos + n) (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 buf 0 pos;
      t.buf <- buf
    end;
    t.len <- pos + n;
    pos

  let u8 t v =
    assert (v >= 0 && v <= 0xFF);
    Bytes.unsafe_set t.buf (reserve t 1) (Char.unsafe_chr v)

  let u16 t v =
    assert (v >= 0 && v <= 0xFFFF);
    Bytes.set_uint16_be t.buf (reserve t 2) v

  let u32 t v =
    assert (v >= 0 && v <= 0xFFFF_FFFF);
    Bytes.set_int32_be t.buf (reserve t 4) (Int32.of_int v)

  let u48 t v =
    assert (v >= 0 && v <= 0xFFFF_FFFF_FFFF);
    let pos = reserve t 6 in
    Bytes.set_uint16_be t.buf pos (v lsr 32);
    Bytes.set_int32_be t.buf (pos + 2) (Int32.of_int (v land 0xFFFF_FFFF))

  let u64 t v = Bytes.set_int64_be t.buf (reserve t 8) v

  let string t s =
    let n = String.length s in
    Bytes.blit_string s 0 t.buf (reserve t n) n

  let bytes t b = string t (Bytes.unsafe_to_string b)

  let lstring t s =
    if String.length s > 0xFFFF then invalid_arg "Wire.Writer.lstring: too long";
    u16 t (String.length s);
    string t s

  let list t f l =
    let n = List.length l in
    if n > 0xFFFF then invalid_arg "Wire.Writer.list: too long";
    u16 t n;
    List.iter f l

  (* A full buffer is handed over as it is: any later write must grow,
     and growing moves the writer to a fresh buffer, so the string
     returned here is never written again. *)
  let contents t =
    if t.len = Bytes.length t.buf then Bytes.unsafe_to_string t.buf
    else Bytes.sub_string t.buf 0 t.len
end

module Reader = struct
  type t = { input : string; mutable pos : int }

  let of_string input = { input; pos = 0 }

  let remaining t = String.length t.input - t.pos

  (* The offset of the next [n] bytes, which the caller then consumes;
     short input raises before anything moves. *)
  let field t n =
    let pos = t.pos in
    if pos + n > String.length t.input then raise Truncated;
    t.pos <- pos + n;
    pos

  let u8 t = Char.code (String.unsafe_get t.input (field t 1))
  let u16 t = String.get_uint16_be t.input (field t 2)

  let u32 t =
    Int32.to_int (String.get_int32_be t.input (field t 4)) land 0xFFFF_FFFF

  let u48 t =
    let pos = field t 6 in
    (String.get_uint16_be t.input pos lsl 32)
    lor (Int32.to_int (String.get_int32_be t.input (pos + 2)) land 0xFFFF_FFFF)

  let u64 t = String.get_int64_be t.input (field t 8)

  let take t n =
    if n < 0 then invalid_arg "Wire.Reader.take: negative length";
    String.sub t.input (field t n) n

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
    if remaining t < 2 then raise Truncated;
    let n = String.get_uint16_be t.input t.pos in
    if remaining t < 2 + n then raise Truncated;
    t.pos <- t.pos + 2;
    take t n

  let list t f =
    let start = t.pos in
    match
      let n = u16 t in
      List.init n (fun _ -> f t)
    with
    | l -> l
    | exception e ->
      t.pos <- start;
      raise e

  let expect_end t =
    if remaining t <> 0 then
      raise (Malformed (Printf.sprintf "%d trailing bytes" (remaining t)))
end

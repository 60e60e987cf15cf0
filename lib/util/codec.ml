(* Little-endian primitives and [len][crc][body] framing for the WAL
   and checkpoints (u32 values masked non-negative). *)

let[@inline] put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let[@inline] put_u64 b off v = Bytes.set_int64_le b off v
let[@inline] put_f b off v = Bytes.set_int64_le b off (Int64.bits_of_float v)
let[@inline] get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let[@inline] get_u64 b off = Bytes.get_int64_le b off
let[@inline] get_f b off = Int64.float_of_bits (Bytes.get_int64_le b off)

let header = 8

let grow b n =
  if Bytes.length b >= n then b else Bytes.create (max n (2 * Bytes.length b))

let seal b ~len =
  put_u32 b 0 len;
  put_u32 b 4 (Crc32.update_bytes 0 b ~pos:header ~len)

let read_frame ic ~avail ~min_len ~max_len buf =
  if avail < header then Error "short frame header"
  else begin
    buf := grow !buf header;
    really_input ic !buf 0 header;
    let len = get_u32 !buf 0 and crc = get_u32 !buf 4 in
    if len < min_len || len > max_len then Error "implausible record length"
    else if header + len > avail then Error "short record body"
    else begin
      buf := grow !buf len;
      really_input ic !buf 0 len;
      if Crc32.update_bytes 0 !buf ~pos:0 ~len <> crc then Error "crc mismatch"
      else Ok len
    end
  end

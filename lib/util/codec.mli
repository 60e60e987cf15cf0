(** The binary codec of every machine-state file ({!Svgic.Wal} records,
    {!Svgic.Checkpoint} sections): little-endian fixed-width values,
    floats as IEEE-754 bits (so they round-trip bit-exactly), and one
    framing, [[len:u32le][crc:u32le][body]] with the CRC-32 of the
    body. *)

val put_u32 : Bytes.t -> int -> int -> unit
(** [put_u32 b off v] stores the low 32 bits of [v]. *)

val put_u64 : Bytes.t -> int -> int64 -> unit
val put_f : Bytes.t -> int -> float -> unit

val get_u32 : Bytes.t -> int -> int
(** Unsigned: always in [0, 0xFFFFFFFF]. *)

val get_u64 : Bytes.t -> int -> int64
val get_f : Bytes.t -> int -> float

val header : int
(** Frame header bytes (8); an encoder writes the body at [header]. *)

val grow : Bytes.t -> int -> Bytes.t
(** [grow b n] is [b] if it holds [n] bytes, else a fresh buffer of at
    least [max n (2 * length b)] (contents not kept). *)

val seal : Bytes.t -> len:int -> unit
(** Fill the header of the frame whose [len]-byte body is encoded at
    [b.[header ..]]; the frame is then [b.[0 .. header+len)]. *)

val read_frame :
  in_channel -> avail:int -> min_len:int -> max_len:int -> Bytes.t ref ->
  (int, string) result
(** Read the frame at the channel's position, [avail] bytes of the
    file remaining: its body lands at offset 0 of [!buf] (grown as
    needed) and its length is returned once the CRC verifies. [Error]
    names the failure (short header, length outside
    [[min_len, max_len]], body past the file, CRC); never raises on
    malformed input. *)

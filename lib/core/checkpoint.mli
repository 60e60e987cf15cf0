(** Checkpointed {!Serve} solve state: one binary file holding
    everything an engine needs to resume — instance arenas, incumbent
    rows, labels, per-shard solve state, external ids, bracket terms,
    the session seed (no RNG state: {!Serve} derives each tick's
    streams from it) and the seqno of the last WAL record reflected.

    {2 Format (version 2)} A magic line [svgic-checkpoint 2], then
    eight {!Svgic_util.Codec} frames (the WAL's framing), in order:
    {ol
    {- meta: tick, WAL seqno, events, next external id, seed (i64);
       n, m, k, directed edges, shards (u32); λ, cut mass, objective,
       bound, upper (f64)}
    {- graph: edge sources, then edge targets (u32), arena order}
    {- pref: the n×m arena; tau: the edges×m arena (f64)}
    {- assign: n×k items; label: n shard ids; ext_of: n external ids
       (u32 each, one frame each)}
    {- shards: per shard objective, upper (f64), flags (u8: bit 0
       degraded, bit 1 freshened), warm_n, warm_pairs, warm length or
       -1 (i64), then one u8 status in {0,1,2} per warm entry}}
    Floats are IEEE-754 bits, so everything round-trips bit-exactly;
    the file is about 0.7x {!Instance.arena_bytes}. Files of another
    version (earlier builds wrote text, version 1) are refused with an
    [Error] naming it.

    {!write} encodes one section at a time into a reused buffer and
    goes temp file + [fsync] + atomic rename + directory [fsync], so a
    crash mid-checkpoint never replaces a good checkpoint with a torn
    one. Fault sites (indexed by the WAL seqno): ["checkpoint_write"]
    leaves a partial temp file, ["checkpoint_rename"] a complete temp
    file never renamed into place. *)

type shard_snap = {
  s_obj : float;
  s_upper : float;
  s_degraded : bool;
  s_freshened : bool;
  s_warm_n : int;
  s_warm_pairs : int;
  s_warm : int array option;
      (** warm-basis variable statuses ([Revised_simplex.vbasis_entries]) *)
}

type snapshot = {
  inst : Instance.t;
  assign : int array array;
  label : int array;
  shards : shard_snap array;
  ext_of : int array;
  next_ext : int;
  tick_no : int;
  events_total : int;
      (** events accepted by [Serve.submit] since engine creation —
          lets a trace-driven resume skip the consumed prefix *)
  wal_seqno : int64;  (** last WAL seqno reflected in this state *)
  cut_mass : float;
  objective_v : float;
  bound_v : float;
  upper_v : float;
  seed : int;  (** session seed the per-tick RNG streams derive from *)
}

val ensure_dir : string -> unit
(** [mkdir -p] for the durability directory. *)

val write : dir:string -> retain:int -> snapshot -> string
(** Write a checkpoint into [dir] (created if missing) and return its
    path. After the atomic rename, checkpoints beyond the newest
    [retain] and any stray temp files are removed. Raises on I/O
    failure or at an armed fault site — the caller decides whether a
    failed checkpoint is fatal (it is not for a live server, which
    still has its previous checkpoint plus the WAL). *)

val list_files : string -> (string * int * int64) list
(** Checkpoint files in [dir] as [(path, tick, seqno)], oldest
    first. Ignores foreign and temp files; [] for a missing dir. *)

val load : string -> (snapshot, string) result
(** Decode and fully validate one checkpoint file: the magic line and
    version, each frame's length and CRC (verified before the frame is
    decoded), [Instance.validate] on the instance, and shape and range
    checks on every section (edges in arena order, assignment rows
    within [0,m), labels within the shard table, unique external ids
    below [next_ext], finite bracket terms, warm statuses in
    {0,1,2}). Never raises on malformed input, and no partially
    validated snapshot ever escapes. *)

val load_latest :
  string -> (string * snapshot * (string * string) list, string) result
(** Load the newest valid checkpoint in [dir], falling back to older
    ones when validation fails. Returns [(path, snapshot, skipped)]
    where [skipped] lists newer-but-corrupt files with their decode
    errors; [Error] when the directory holds no loadable checkpoint. *)

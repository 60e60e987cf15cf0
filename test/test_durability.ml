(* Durability tests: CRC-32 check value, WAL round-trips and torn-tail
   truncation at every byte length, checkpoint round-trips and
   corruption fallback, fault-injected append/fsync/checkpoint paths,
   audit detection + repair of a tampered checkpoint, and the
   subprocess kill matrix — SIGKILL a live `svgic serve` at random
   tick offsets and prove the recovered replay bit-identical. *)

module Rng = Svgic_util.Rng
module Crc32 = Svgic_util.Crc32
module Fault = Svgic_util.Fault
module Instance = Svgic.Instance
module Serve = Svgic.Serve
module Wal = Svgic.Wal
module Checkpoint = Svgic.Checkpoint

let fresh_dir =
  let c = ref 0 in
  fun () ->
    incr c;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "svgic-dur-%d-%d" (Unix.getpid ()) !c)
    in
    Checkpoint.ensure_dir d;
    d

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_faults ~sites f =
  Fault.configure ~seed:1 ~rate:1.0 ~kinds:[ Fault.Crash ];
  Fault.restrict_sites sites;
  Fun.protect ~finally:Fault.clear f

(* ------------------------------ crc ------------------------------- *)

let test_crc_check_value () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.of_string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.of_string "");
  (* streaming in slices composes *)
  let s = "the quick brown fox" in
  let a = Crc32.of_string s in
  let b = Crc32.update_string (Crc32.update_string 0 s ~pos:0 ~len:7) s ~pos:7
      ~len:(String.length s - 7)
  in
  Alcotest.(check int) "slices compose" a b

(* ------------------------------ wal ------------------------------- *)

let sample_records m =
  [
    Wal.Event (Wal.Pref { user = 3; item = 1; value = 0.125 });
    Wal.Event (Wal.Tau { u = 0; v = 2; item = m - 1; value = -1.5e-3 });
    Wal.Tick 1;
    Wal.Event (Wal.Leave 2);
    Wal.Event
      (Wal.Join
         {
           Wal.jpref = Array.init m (fun c -> 0.1 *. float_of_int c);
           jfriends =
             [|
               ( 7,
                 Array.init m (fun c -> float_of_int c /. 7.0),
                 Array.init m (fun c -> 1.0 -. (float_of_int c /. 7.0)) );
             |];
         });
    Wal.Tick 2;
  ]

let bits = Int64.bits_of_float

let record_eq a b =
  match (a, b) with
  | Wal.Tick x, Wal.Tick y -> x = y
  | Wal.Event (Wal.Leave x), Wal.Event (Wal.Leave y) -> x = y
  | Wal.Event (Wal.Pref p), Wal.Event (Wal.Pref q) ->
      p.user = q.user && p.item = q.item && bits p.value = bits q.value
  | Wal.Event (Wal.Tau p), Wal.Event (Wal.Tau q) ->
      p.u = q.u && p.v = q.v && p.item = q.item && bits p.value = bits q.value
  | Wal.Event (Wal.Join p), Wal.Event (Wal.Join q) ->
      Array.map bits p.jpref = Array.map bits q.jpref
      && Array.length p.jfriends = Array.length q.jfriends
      && Array.for_all2
           (fun (e1, o1, i1) (e2, o2, i2) ->
             e1 = e2
             && Array.map bits o1 = Array.map bits o2
             && Array.map bits i1 = Array.map bits i2)
           p.jfriends q.jfriends
  | _ -> false

let test_wal_roundtrip () =
  let m = 4 in
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m ~policy:Wal.Every_tick in
  let records = sample_records m in
  List.iteri
    (fun i r ->
      Alcotest.(check int64)
        "seqno" (Int64.of_int (i + 1)) (Wal.append w r))
    records;
  Wal.close w;
  let got = ref [] in
  (match Wal.scan ~f:(fun _ r -> got := r :: !got) path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s ->
      Alcotest.(check int) "records" (List.length records) s.Wal.records;
      Alcotest.(check int) "events" 4 s.Wal.events;
      Alcotest.(check int) "ticks" 2 s.Wal.ticks;
      Alcotest.(check int) "m" m s.Wal.scan_m;
      Alcotest.(check (option string)) "not torn" None s.Wal.torn;
      Alcotest.(check int) "valid to eof" s.Wal.file_size s.Wal.valid_end);
  List.iter2
    (fun a b -> Alcotest.(check bool) "record bit-identical" true (record_eq a b))
    records
    (List.rev !got)

(* SIGKILL can land mid-write: every truncation length of the final
   record must be detected as torn, truncate back to the last full
   record, and repair cleanly. *)
let test_wal_torn_tail () =
  let m = 3 in
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.svgic" in
  let w = Wal.create ~path ~m ~policy:Wal.Off in
  List.iter
    (fun r -> ignore (Wal.append w r : int64))
    [
      Wal.Tick 1;
      Wal.Event (Wal.Pref { user = 0; item = 1; value = 0.5 });
      Wal.Tick 2;
    ];
  Wal.close w;
  let prefix = read_file path in
  let prefix_end = String.length prefix in
  (match Wal.open_append ~path ~policy:Wal.Off () with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok (w, _) ->
      ignore (Wal.append w (Wal.Event (Wal.Tau { u = 0; v = 1; item = 2; value = 0.25 })) : int64);
      Wal.close w);
  let full = read_file path in
  Alcotest.(check bool) "final record appended" true
    (String.length full > prefix_end
    && String.sub full 0 prefix_end = prefix);
  let torn_path = Filename.concat dir "torn.svgic" in
  for cut = prefix_end to String.length full - 1 do
    write_file torn_path (String.sub full 0 cut);
    match Wal.scan torn_path with
    | Error e -> Alcotest.failf "scan cut=%d: %s" cut e
    | Ok s ->
        Alcotest.(check int)
          (Printf.sprintf "records at cut %d" cut)
          3 s.Wal.records;
        Alcotest.(check int)
          (Printf.sprintf "valid_end at cut %d" cut)
          prefix_end s.Wal.valid_end;
        if cut > prefix_end then
          Alcotest.(check bool)
            (Printf.sprintf "torn at cut %d" cut)
            true (s.Wal.torn <> None)
  done;
  (* repair drops the tail; the log then scans clean *)
  write_file torn_path (String.sub full 0 (String.length full - 1));
  (match Wal.repair torn_path with
  | Error e -> Alcotest.failf "repair: %s" e
  | Ok s -> Alcotest.(check (option string)) "repaired" None s.Wal.torn);
  Alcotest.(check int) "truncated to last full record" prefix_end
    (String.length (read_file torn_path))

let test_wal_mid_corruption () =
  let m = 3 in
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m ~policy:Wal.Off in
  for t = 1 to 4 do
    ignore (Wal.append w (Wal.Tick t) : int64)
  done;
  Wal.close w;
  let s = Bytes.of_string (read_file path) in
  let header_len = String.length (Printf.sprintf "svgic-wal 1 m %d\n" m) in
  (* flip a byte inside the SECOND record's body *)
  let off = header_len + (8 + 13) + 10 in
  Bytes.set s off (Char.chr (Char.code (Bytes.get s off) lxor 0x40));
  write_file path (Bytes.to_string s);
  match Wal.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok sc ->
      Alcotest.(check int) "stops before corrupt record" 1 sc.Wal.records;
      Alcotest.(check int) "valid_end" (header_len + 8 + 13) sc.Wal.valid_end;
      Alcotest.(check bool) "torn" true (sc.Wal.torn <> None)

let test_wal_open_append_seqnos () =
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m:2 ~policy:Wal.Off in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  ignore (Wal.append w (Wal.Tick 2) : int64);
  Wal.close w;
  (match Wal.open_append ~path ~policy:Wal.Off () with
  | Error e -> Alcotest.failf "open_append: %s" e
  | Ok (w, s) ->
      Alcotest.(check int64) "scanned last" 2L s.Wal.last_seqno;
      Alcotest.(check int64) "continues" 3L (Wal.append w (Wal.Tick 3));
      Wal.close w);
  (* min_seqno guards against a lost unsynced tail reusing seqnos *)
  match Wal.open_append ~path ~policy:Wal.Off ~min_seqno:10L () with
  | Error e -> Alcotest.failf "open_append min_seqno: %s" e
  | Ok (w, _) ->
      Alcotest.(check int64) "bumped past checkpoint" 11L
        (Wal.append w (Wal.Tick 4));
      Wal.close w

(* -------------------- fault-injected wal paths -------------------- *)

let test_fault_wal_append () =
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m:2 ~policy:Wal.Off in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  (try
     with_faults ~sites:[ "wal_append" ] (fun () ->
         ignore (Wal.append w (Wal.Tick 2) : int64);
         Alcotest.fail "wal_append fault did not fire")
   with Fault.Injected _ -> ());
  Wal.close w;
  (* the crash left half a frame; recovery truncates it *)
  match Wal.repair path with
  | Error e -> Alcotest.failf "repair: %s" e
  | Ok s ->
      Alcotest.(check int) "valid prefix survives" 1 s.Wal.records;
      Alcotest.(check (option string)) "tail dropped" None s.Wal.torn

let test_fault_wal_fsync () =
  let path = Filename.concat (fresh_dir ()) "wal.svgic" in
  let w = Wal.create ~path ~m:2 ~policy:Wal.Every_event in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  (try
     with_faults ~sites:[ "wal_fsync" ] (fun () ->
         ignore (Wal.append w (Wal.Tick 2) : int64);
         Alcotest.fail "wal_fsync fault did not fire")
   with Fault.Injected _ -> ());
  (* the record never reached the disk: a scan of the file sees only
     the synced prefix (the writer is abandoned, as a crash would) *)
  match Wal.scan path with
  | Error e -> Alcotest.failf "scan: %s" e
  | Ok s -> Alcotest.(check int) "unsynced record lost" 1 s.Wal.records

(* --------------------------- checkpoints -------------------------- *)

let mk_engine seed =
  let rng = Rng.create seed in
  let inst =
    Test_serve.community_instance rng ~blobs:3 ~blob_size:4 ~m:5 ~k:2
  in
  Serve.create ~certify:true (Rng.create (seed + 1)) inst

let drive t r ~events ~ticks =
  let n = Serve.num_users t in
  for _ = 1 to ticks do
    for _ = 1 to events do
      ignore
        (Serve.submit t
           (Serve.Pref_delta
              { user = Rng.int r n; item = Rng.int r 5; value = Rng.float r 1.0 })
          : int option)
    done;
    ignore (Serve.tick t : Serve.tick_stats)
  done

let test_checkpoint_roundtrip () =
  let t = mk_engine 11 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 1; retain = 3 };
  drive t (Rng.create 5) ~events:6 ~ticks:3;
  let path = Serve.checkpoint t in
  Serve.disable_durability t;
  match Checkpoint.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok snap ->
      let r = Serve.restore ~certify:true snap in
      Alcotest.(check int) "fingerprint" (Serve.fingerprint t)
        (Serve.fingerprint r);
      Alcotest.(check bool) "objective bits" true
        (bits (Serve.objective t) = bits (Serve.objective r));
      let a = Serve.audit r in
      Alcotest.(check bool) "audit ok" true a.Serve.audit_ok;
      Alcotest.(check bool) "bracket ok" true a.Serve.bracket_ok

let test_checkpoint_corrupt_fallback () =
  let t = mk_engine 13 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Every_tick; checkpoint_every = 1; retain = 4 };
  drive t (Rng.create 6) ~events:5 ~ticks:3;
  let fp = Serve.fingerprint t in
  Serve.disable_durability t;
  let files = Checkpoint.list_files dir in
  Alcotest.(check bool) "several checkpoints" true (List.length files >= 2);
  let newest, _, _ = List.nth files (List.length files - 1) in
  (* flip a byte in the middle of the newest checkpoint *)
  let b = Bytes.of_string (read_file newest) in
  let off = Bytes.length b / 2 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x01));
  write_file newest (Bytes.to_string b);
  (match Checkpoint.load newest with
  | Ok _ -> Alcotest.fail "corrupt checkpoint loaded"
  | Error _ -> ());
  match Serve.recover ~certify:true ~fsync:Wal.Off ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, rec_) ->
      Alcotest.(check bool) "skipped the corrupt newest" true
        (List.exists (fun (p, _) -> p = newest) rec_.Serve.checkpoints_skipped);
      Alcotest.(check bool) "replayed past older checkpoint" true
        (rec_.Serve.replayed_ticks >= 1);
      Alcotest.(check int) "recovered bit-identical" fp (Serve.fingerprint r);
      Serve.disable_durability r

let test_fault_checkpoint_write_and_rename () =
  let t = mk_engine 17 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Every_tick; checkpoint_every = 1; retain = 4 };
  drive t (Rng.create 7) ~events:5 ~ticks:2;
  let before = List.length (Checkpoint.list_files dir) in
  List.iter
    (fun site ->
      drive t (Rng.create 8) ~events:3 ~ticks:0;
      (* the periodic checkpoint inside tick fails; the engine counts
         it and keeps serving on the previous checkpoint + WAL *)
      with_faults ~sites:[ site ] (fun () ->
          ignore (Serve.tick t : Serve.tick_stats)))
    [ "checkpoint_write"; "checkpoint_rename" ];
  Alcotest.(check int) "both failures counted" 2 (Serve.checkpoint_failures t);
  Alcotest.(check int) "no new checkpoint landed" before
    (List.length (Checkpoint.list_files dir));
  let fp = Serve.fingerprint t in
  Serve.disable_durability t;
  (* no temp litter survives recovery, and the WAL carries the ticks
     the checkpoints missed *)
  match Serve.recover ~certify:true ~fsync:Wal.Off ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, rec_) ->
      Alcotest.(check bool) "replayed the missed ticks" true
        (rec_.Serve.replayed_ticks >= 2);
      Alcotest.(check int) "bit-identical" fp (Serve.fingerprint r);
      Serve.disable_durability r

(* Randomized AVG rounding draws from per-tick streams derived from
   the session seed, so no RNG state is checkpointed: an engine
   recovered mid-run (at any --domains) must keep drawing exactly what
   the uninterrupted one draws. *)
let test_avg_rounding_recovers_streams () =
  let rounding = Svgic.Shard.Avg { repeats = 3; advanced_sampling = false } in
  let mk ?domains () =
    let inst =
      Test_serve.community_instance (Rng.create 31) ~blobs:3 ~blob_size:4 ~m:5
        ~k:2
    in
    Serve.create ~rounding ?domains (Rng.create 32) inst
  in
  let live = mk () in
  let dir = fresh_dir () in
  Serve.enable_durability live
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 2; retain = 2 };
  drive live (Rng.create 33) ~events:4 ~ticks:3;
  Serve.disable_durability live;
  drive live (Rng.create 34) ~events:4 ~ticks:3;
  List.iter
    (fun domains ->
      match Serve.recover ~rounding ~domains ~fsync:Wal.Off ~dir () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok (r, _) ->
          Serve.disable_durability r;
          drive r (Rng.create 34) ~events:4 ~ticks:3;
          Alcotest.(check int)
            (Printf.sprintf "domains=%d continues bit-identical" domains)
            (Serve.fingerprint live) (Serve.fingerprint r))
    [ 1; 2 ];
  let fresh = mk ~domains:2 () in
  drive fresh (Rng.create 33) ~events:4 ~ticks:3;
  drive fresh (Rng.create 34) ~events:4 ~ticks:3;
  Alcotest.(check int) "uninterrupted run matches across domains"
    (Serve.fingerprint live) (Serve.fingerprint fresh)

(* The seed is part of the state a fingerprint certifies: AVG-D
   engines that differ only in it serve the same rows but must not
   compare equal, since their AVG streams would diverge. *)
let test_fingerprint_covers_seed () =
  let mk seed =
    Serve.create (Rng.create seed)
      (Test_serve.community_instance (Rng.create 31) ~blobs:3 ~blob_size:4
         ~m:5 ~k:2)
  in
  let a = mk 1 and b = mk 2 in
  Alcotest.(check bool) "same rows" true
    (Svgic.Config.assignment (Serve.config a)
    = Svgic.Config.assignment (Serve.config b));
  Alcotest.(check bool) "fingerprints differ" true
    (Serve.fingerprint a <> Serve.fingerprint b)

(* --------------------- audit detect + repair ---------------------- *)

(* Rewrite a checkpoint through the API: load it, edit the snapshot,
   write it back under the same name, so only the tampered semantics
   — not the framing — are wrong. *)
let retamper ~dir path f =
  match Checkpoint.load path with
  | Error e -> Alcotest.failf "load before tampering: %s" e
  | Ok snap ->
      let path' = Checkpoint.write ~dir ~retain:4 (f snap) in
      Alcotest.(check string) "rewrote the same file" path path'

let contains s needle =
  let rec find i =
    i + String.length needle <= String.length s
    && (String.sub s i (String.length needle) = needle || find (i + 1))
  in
  find 0

let test_audit_detects_tampered_objective () =
  let t = mk_engine 19 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Every_tick; checkpoint_every = 1; retain = 2 };
  drive t (Rng.create 9) ~events:5 ~ticks:2;
  Serve.disable_durability t;
  let files = Checkpoint.list_files dir in
  let newest, _, _ = List.nth files (List.length files - 1) in
  (* corrupt the first stored shard objective, CRCs kept valid *)
  let done_ = ref false in
  retamper ~dir newest (fun snap ->
      let shards = Array.copy snap.Checkpoint.shards in
      if Array.length shards > 0 then begin
        done_ := true;
        shards.(0) <- { (shards.(0)) with Checkpoint.s_obj = 0x1.8p+5 }
      end;
      { snap with Checkpoint.shards });
  Alcotest.(check bool) "tampered a shard line" true !done_;
  match Serve.recover ~certify:true ~fsync:Wal.Off ~dir () with
  | Error e -> Alcotest.failf "recover: %s" e
  | Ok (r, _) ->
      Serve.disable_durability r;
      let a = Serve.audit r in
      Alcotest.(check bool) "audit detects" false a.Serve.audit_ok;
      Alcotest.(check bool) "names the shard" true (a.Serve.bad_shards <> []);
      let a2 = Serve.audit ~repair:true r in
      Alcotest.(check bool) "repair restores" true a2.Serve.audit_ok;
      Alcotest.(check bool) "shards were demoted" true (a2.Serve.repaired <> []);
      let a3 = Serve.audit r in
      Alcotest.(check bool) "stable after repair" true a3.Serve.audit_ok

let test_checkpoint_validate_rejects_bad_label () =
  let t = mk_engine 23 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 1; retain = 1 };
  let path = Serve.checkpoint t in
  Serve.disable_durability t;
  retamper ~dir path (fun snap ->
      let label = Array.copy snap.Checkpoint.label in
      label.(0) <- 999;
      { snap with Checkpoint.label });
  match Checkpoint.load path with
  | Ok _ -> Alcotest.fail "out-of-range label accepted"
  | Error e ->
      Alcotest.(check bool) "mentions label" true
        (String.length e > 0 && contains e "label")

let test_checkpoint_rejects_bad_warm_status () =
  let t = mk_engine 29 in
  let dir = fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 1; retain = 1 };
  let path = Serve.checkpoint t in
  Serve.disable_durability t;
  let found = ref false in
  retamper ~dir path (fun snap ->
      let shards =
        Array.map
          (fun sh ->
            match sh.Checkpoint.s_warm with
            | Some w when (not !found) && Array.length w > 0 ->
                found := true;
                let w = Array.copy w in
                w.(0) <- 3;
                { sh with Checkpoint.s_warm = Some w }
            | _ -> sh)
          snap.Checkpoint.shards
      in
      { snap with Checkpoint.shards });
  Alcotest.(check bool) "some shard holds a warm basis" true !found;
  match Checkpoint.load path with
  | Ok _ -> Alcotest.fail "warm status 3 accepted"
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "names the warm status (%s)" e)
        true (contains e "warm status 3")

let test_serialize_byte_offset_errors () =
  let text = "svgic-instance 1\nn 1 m 2 k 1 lambda 0.5\n0.5 oops\nedges 0\n" in
  match Svgic.Serialize.instance_of_string text with
  | Ok _ -> Alcotest.fail "bad float accepted"
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "positional error (got %S)" e)
        true
        (String.length e > 5 && String.sub e 0 5 = "byte "
        && String.index_opt e ':' <> None)

(* ------------------------- kill matrix ---------------------------- *)

(* Drive the real CLI binary over a pipe, SIGKILL it after a chosen
   number of completed ticks, recover in a fresh process, resume the
   same trace, and require the final fingerprint to match an
   uninterrupted run.  Children force SVGIC_FAULT_KINDS=timeout,nan so
   a CI chaos seed cannot also fire Crash faults inside them — the
   SIGKILL is this test's fault. *)

(* Resolved relative to this test binary so it works both under `dune
   runtest` (cwd = test dir) and `dune exec` (cwd = project root). *)
let cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bin/svgic_cli.exe"

let child_env () =
  let key = "SVGIC_FAULT_KINDS=" in
  let seen = ref false in
  let env =
    Array.map
      (fun kv ->
        if String.length kv >= String.length key
           && String.sub kv 0 (String.length key) = key
        then (
          seen := true;
          key ^ "timeout,nan")
        else kv)
      (Unix.environment ())
  in
  if !seen then env else Array.append env [| key ^ "timeout,nan" |]

let spawn args =
  (* cloexec so the child does not inherit the parent-side pipe ends —
     it would otherwise hold its own stdin's write end open and never
     see EOF.  [create_process_env] dup2s its fds onto 0/1, which
     clears the flag on the child's copies. *)
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env cli
      (Array.of_list (cli :: args))
      (child_env ()) in_r out_w Unix.stderr
  in
  Unix.close out_w;
  Unix.close in_r;
  (pid, Unix.out_channel_of_descr in_w, Unix.in_channel_of_descr out_r)

let wait_exit pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* Run to completion with [input] on stdin; return (exit code, output). *)
let run_cli ?input args =
  let pid, stdin_oc, stdout_ic = spawn args in
  (match input with
  | Some s ->
      output_string stdin_oc s;
      close_out stdin_oc
  | None -> close_out stdin_oc);
  let b = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel b stdout_ic 1
     done
   with End_of_file -> ());
  close_in stdout_ic;
  (wait_exit pid, Buffer.contents b)

let fingerprint_of output =
  let fp = ref None in
  String.split_on_char '\n' output
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ "fingerprint:"; hex ] -> fp := Some hex
         | _ -> ());
  match !fp with
  | Some hex -> hex
  | None -> Alcotest.failf "no fingerprint in output:\n%s" output

let gen_trace r ~n ~m ~ticks ~per =
  let b = Buffer.create 512 in
  for _ = 1 to ticks do
    for _ = 1 to per do
      Buffer.add_string b
        (Printf.sprintf "pref %d %d %.6f\n" (Rng.int r n) (Rng.int r m)
           (Rng.float r 1.0))
    done;
    Buffer.add_string b "tick\n"
  done;
  Buffer.contents b

let engine_args seed =
  [ "-n"; "12"; "-m"; "6"; "-k"; "2"; "--seed"; string_of_int seed ]

(* Feed the trace line by line; after each "tick" sent, block until the
   child prints that tick's stats line, so the kill lands after the
   tick's WAL record (and any due checkpoint) is on disk. *)
let kill_at_tick ~trace ~dir ~seed ~offset =
  let args =
    ("serve" :: engine_args seed)
    @ [ "--events"; "-"; "--wal"; dir; "--checkpoint-every"; "2";
        "--fsync"; "every_tick" ]
  in
  let pid, stdin_oc, stdout_ic = spawn args in
  let await_tick () =
    let rec go () =
      let line = input_line stdout_ic in
      if String.length line >= 4 && String.sub line 0 4 = "tick" then ()
      else go ()
    in
    go ()
  in
  let ticks_done = ref 0 in
  (try
     String.split_on_char '\n' trace
     |> List.iter (fun line ->
            if !ticks_done < offset && line <> "" then (
              output_string stdin_oc (line ^ "\n");
              if line = "tick" then (
                flush stdin_oc;
                await_tick ();
                incr ticks_done)))
   with End_of_file | Sys_error _ -> ());
  Unix.kill pid Sys.sigkill;
  ignore (wait_exit pid : int);
  close_out_noerr stdin_oc;
  close_in_noerr stdout_ic;
  Alcotest.(check int) "reached the kill offset" offset !ticks_done

let test_kill_matrix () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ticks = 8 and per = 6 in
  for seed = 0 to 2 do
    let cli_seed = 100 + seed in
    let trace = gen_trace (Rng.create (500 + seed)) ~n:12 ~m:6 ~ticks ~per in
    let code, out =
      run_cli ~input:trace
        (("serve" :: engine_args cli_seed) @ [ "--events"; "-"; "--fingerprint" ])
    in
    Alcotest.(check int) "reference run exits 0" 0 code;
    let reference = fingerprint_of out in
    let trace_file =
      Filename.concat (fresh_dir ()) (Printf.sprintf "trace-%d.txt" seed)
    in
    write_file trace_file trace;
    let offs = Rng.create (777 + seed) in
    for _trial = 1 to 5 do
      let offset = 1 + Rng.int offs (ticks - 2) in
      let dir = fresh_dir () in
      kill_at_tick ~trace ~dir ~seed:cli_seed ~offset;
      let code, out =
        run_cli
          [ "fsck"; dir ]
      in
      Alcotest.(check int) "fsck exits 0 on recoverable dir" 0 code;
      Alcotest.(check bool) "fsck reports recoverable" true
        (contains out "recoverable:");
      let code, out =
        run_cli
          [ "recover"; "--dir"; dir; "--events"; trace_file; "--fingerprint" ]
      in
      Alcotest.(check int) "recover exits 0" 0 code;
      Alcotest.(check string)
        (Printf.sprintf "seed %d offset %d bit-identical" seed offset)
        reference (fingerprint_of out)
    done
  done

let test_fsck_unrecoverable () =
  let dir = fresh_dir () in
  (* WAL but no checkpoint: nothing to recover from *)
  let w =
    Wal.create ~path:(Filename.concat dir "wal.svgic") ~m:2 ~policy:Wal.Off
  in
  ignore (Wal.append w (Wal.Tick 1) : int64);
  Wal.close w;
  let code, out = run_cli [ "fsck"; dir ] in
  Alcotest.(check int) "nonzero exit" 1 code;
  Alcotest.(check bool) "says unrecoverable" true
    (contains out "unrecoverable")

(* A text checkpoint written by an earlier build: refused with its
   version named, by [load] and by [svgic fsck]. *)
let test_checkpoint_v1_refused () =
  let dir = fresh_dir () in
  let path =
    Filename.concat dir "ckpt-000000000001-0000000000000001.svgic"
  in
  write_file path
    "svgic-checkpoint 1\nmeta tick 1 seqno 1 events 0 next_ext 2 nshards 1 \
     cut 0x0p+0 obj 0x0p+0 bound 0x0p+0 upper inf\nend 00000000\n";
  (match Checkpoint.load path with
  | Ok _ -> Alcotest.fail "v1 checkpoint loaded"
  | Error e ->
      Alcotest.(check bool) (Printf.sprintf "names version 1 (%s)" e) true
        (contains e "version 1"));
  let _code, out = run_cli [ "fsck"; dir ] in
  Alcotest.(check bool) (Printf.sprintf "fsck says CORRUPT (%s)" out) true
    (contains out "CORRUPT" && contains out "version 1")

let suite =
  [
    Alcotest.test_case "crc32 check value" `Quick test_crc_check_value;
    Alcotest.test_case "wal roundtrip bit-identical" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail at every cut" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal mid-file corruption stops scan" `Quick
      test_wal_mid_corruption;
    Alcotest.test_case "wal open_append seqno continuity" `Quick
      test_wal_open_append_seqnos;
    Alcotest.test_case "fault: wal_append leaves torn tail" `Quick
      test_fault_wal_append;
    Alcotest.test_case "fault: wal_fsync loses unsynced record" `Quick
      test_fault_wal_fsync;
    Alcotest.test_case "checkpoint roundtrip via restore" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "corrupt checkpoint falls back to older" `Quick
      test_checkpoint_corrupt_fallback;
    Alcotest.test_case "fault: checkpoint write/rename survive" `Quick
      test_fault_checkpoint_write_and_rename;
    Alcotest.test_case "avg rounding: recovery keeps derived streams" `Quick
      test_avg_rounding_recovers_streams;
    Alcotest.test_case "fingerprint covers the session seed" `Quick
      test_fingerprint_covers_seed;
    Alcotest.test_case "audit detects and repairs tampering" `Quick
      test_audit_detects_tampered_objective;
    Alcotest.test_case "checkpoint rejects out-of-range label" `Quick
      test_checkpoint_validate_rejects_bad_label;
    Alcotest.test_case "warm status outside {0,1,2} is rejected" `Quick
      test_checkpoint_rejects_bad_warm_status;
    Alcotest.test_case "serialize errors carry byte offsets" `Quick
      test_serialize_byte_offset_errors;
    Alcotest.test_case "kill matrix: SIGKILL + recover bit-identical" `Slow
      test_kill_matrix;
    Alcotest.test_case "fsck: unrecoverable directory exits nonzero" `Quick
      test_fsck_unrecoverable;
    Alcotest.test_case "v1 text checkpoint refused by load and fsck" `Quick
      test_checkpoint_v1_refused;
  ]

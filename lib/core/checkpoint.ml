(* Checkpoint files: a magic line, then one {!Codec} frame per
   section (meta, graph, pref, tau, assign, label, ext_of, shards).
   Each section is encoded into one reusable buffer, so the writer's
   peak is the largest section.  Writing goes temp file -> fsync ->
   atomic rename -> directory fsync, so the newest complete checkpoint
   is never replaced by a torn one. *)

module Fault = Svgic_util.Fault
module Graph = Svgic_graph.Graph
module FA = Float.Array
open Svgic_util.Codec

type shard_snap = {
  s_obj : float;
  s_upper : float;
  s_degraded : bool;
  s_freshened : bool;
  s_warm_n : int;
  s_warm_pairs : int;
  s_warm : int array option;
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
  wal_seqno : int64;
  cut_mass : float;
  objective_v : float;
  bound_v : float;
  upper_v : float;
  seed : int;
}

let version = 2
let magic = Printf.sprintf "svgic-checkpoint %d\n" version

(* meta: tick, seqno, events, next_ext, seed (i64); n, m, k, edges,
   shards (u32); lambda and the four bracket terms (f64) *)
let meta_len = (5 * 8) + (5 * 4) + (5 * 8)

(* per shard: obj, upper (f64), flags (u8), warm_n, warm_pairs, warm
   length or -1 (i64), then one u8 status per warm entry *)
let shard_fixed = 8 + 8 + 1 + 8 + 8 + 8

(* ---- small helpers ----------------------------------------------- *)

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* ---- listing ----------------------------------------------------- *)

let list_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun nm ->
             match
               Scanf.sscanf nm "ckpt-%d-%Ld.svgic%!" (fun t s -> (t, s))
             with
             | t, s -> Some (Filename.concat dir nm, t, s)
             | exception _ -> None)
      |> List.sort (fun (_, t1, s1) (_, t2, s2) -> compare (t1, s1) (t2, s2))

(* ---- writing ----------------------------------------------------- *)

let write_sections oc snap =
  let inst = snap.inst in
  let n = Instance.n inst and m = Instance.m inst and k = Instance.k inst in
  let ne = Instance.num_edges inst in
  let buf = ref (Bytes.create 4096) and at = ref header in
  let u8 v = Bytes.set_uint8 !buf !at v; incr at in
  let u32 v = put_u32 !buf !at v; at := !at + 4 in
  let i64 v = put_u64 !buf !at (Int64.of_int v); at := !at + 8 in
  let f64 v = put_f !buf !at v; at := !at + 8 in
  (* one frame: [fill] encodes exactly [len] body bytes *)
  let section len fill =
    buf := grow !buf (header + len);
    at := header;
    fill ();
    assert (!at = header + len);
    seal !buf ~len;
    output oc !buf 0 (header + len)
  in
  section meta_len (fun () ->
      List.iter i64
        [ snap.tick_no; Int64.to_int snap.wal_seqno; snap.events_total;
          snap.next_ext; snap.seed ];
      List.iter u32 [ n; m; k; ne; Array.length snap.shards ];
      List.iter f64
        [ Instance.lambda inst; snap.cut_mass; snap.objective_v;
          snap.bound_v; snap.upper_v ]);
  section (8 * ne) (fun () ->
      Instance.iter_edges inst (fun _ u _ -> u32 u);
      Instance.iter_edges inst (fun _ _ v -> u32 v));
  section (8 * n * m) (fun () ->
      for u = 0 to n - 1 do
        for c = 0 to m - 1 do f64 (Instance.pref inst u c) done
      done);
  section (8 * ne * m) (fun () ->
      for e = 0 to ne - 1 do
        for c = 0 to m - 1 do f64 (Instance.tau_edge inst e c) done
      done);
  section (4 * n * k) (fun () -> Array.iter (Array.iter u32) snap.assign);
  section (4 * n) (fun () -> Array.iter u32 snap.label);
  section (4 * n) (fun () -> Array.iter u32 snap.ext_of);
  let warm sh = Option.value sh.s_warm ~default:[||] in
  let len sh = shard_fixed + Array.length (warm sh) in
  section (Array.fold_left (fun a sh -> a + len sh) 0 snap.shards) (fun () ->
      Array.iter
        (fun sh ->
          f64 sh.s_obj;
          f64 sh.s_upper;
          u8 (Bool.to_int sh.s_degraded lor (2 * Bool.to_int sh.s_freshened));
          i64 sh.s_warm_n;
          i64 sh.s_warm_pairs;
          i64 (match sh.s_warm with None -> -1 | Some w -> Array.length w);
          Array.iter u8 (warm sh))
        snap.shards)

let write ~dir ~retain snap =
  ensure_dir dir;
  let name =
    Printf.sprintf "ckpt-%012d-%016Ld.svgic" snap.tick_no snap.wal_seqno
  in
  let path = Filename.concat dir name in
  let tmp = path ^ ".tmp" in
  let idx = Int64.to_int snap.wal_seqno land max_int in
  (* an exception closes (and flushes) the channel, leaving a torn
     temp file behind, exactly as a crash would *)
  Out_channel.with_open_bin tmp (fun oc ->
      output_string oc magic;
      (match Fault.at ~site:"checkpoint_write" ~index:idx with
      | Some Fault.Crash -> raise (Fault.Injected "checkpoint_write")
      | Some _ | None -> ());
      write_sections oc snap;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  (match Fault.at ~site:"checkpoint_rename" ~index:idx with
  | Some Fault.Crash ->
      (* complete temp file exists, but was never renamed into place *)
      raise (Fault.Injected "checkpoint_rename")
  | Some _ | None -> ());
  Sys.rename tmp path;
  fsync_dir dir;
  (* retention: drop all but the newest [retain], plus stray temps *)
  let files = list_files dir in
  let ndrop = List.length files - max 1 retain in
  List.iteri
    (fun i (p, _, _) ->
      if i < ndrop then try Sys.remove p with Sys_error _ -> ())
    files;
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun nm ->
          if Filename.check_suffix nm ".tmp" then
            try Sys.remove (Filename.concat dir nm) with Sys_error _ -> ())
        names);
  path

(* ---- loading ----------------------------------------------------- *)

let fail fmt = Printf.ksprintf failwith fmt

(* The magic line, read without trusting the file to hold a newline;
   a checkpoint of another format version is named by it. *)
let read_magic ic size =
  let got = really_input_string ic (min (String.length magic) size) in
  if got <> magic then
    match String.index_opt got '\n' with
    | Some i when String.starts_with ~prefix:"svgic-checkpoint " got ->
        fail "unsupported checkpoint format version %s (this build reads %d)"
          (String.sub got 17 (i - 17)) version
    | _ -> failwith "not a svgic-checkpoint file"

let decode ic size =
  read_magic ic size;
  let pos = ref (String.length magic) in
  let buf = ref (Bytes.create 4096) and at = ref 0 in
  let take w = let o = !at in at := o + w; o in
  let u8 () = Bytes.get_uint8 !buf (take 1) in
  let u32 () = get_u32 !buf (take 4) in
  let i64 () = Int64.to_int (get_u64 !buf (take 8)) in
  let f64 () = get_f !buf (take 8) in
  (* the next frame, CRC-verified before anything decodes it *)
  let section name =
    match
      read_frame ic ~avail:(size - !pos) ~min_len:0 ~max_len:0xFFFFFFFF buf
    with
    | Error e -> fail "%s section: %s" name e
    | Ok l ->
        pos := !pos + header + l;
        at := 0;
        l
  in
  let exactly name len =
    let l = section name in
    if l <> len then fail "%s section: %d bytes, expected %d" name l len
  in
  exactly "meta" meta_len;
  let iv = Array.init 5 (fun _ -> i64 ()) in
  let dims = Array.init 5 (fun _ -> u32 ()) in
  let fv = Array.init 5 (fun _ -> f64 ()) in
  if Array.exists (fun v -> v < 0) (Array.sub iv 0 4) then
    failwith "negative meta field";
  let tick_no = iv.(0) and events_total = iv.(2) and next_ext = iv.(3) in
  let n = dims.(0) and m = dims.(1) and k = dims.(2) in
  let ne = dims.(3) and nshards = dims.(4) in
  if not (Array.for_all Float.is_finite (Array.sub fv 1 3)) then
    failwith "non-finite bracket term";
  if Float.is_nan fv.(4) then failwith "NaN upper bound";
  (* every arena must fit in what is left of the file, which also
     keeps the section sizes below from overflowing *)
  let rest = size - !pos in
  if m < 1 || n > rest / (8 * m) || ne > rest / (8 * m) || nshards > rest then
    failwith "meta: dimensions exceed the file";
  exactly "graph" (8 * ne);
  let eu = Array.init ne (fun _ -> u32 ()) in
  let ev = Array.init ne (fun _ -> u32 ()) in
  for e = 0 to ne - 1 do
    let u = eu.(e) and v = ev.(e) in
    if u >= n || v >= n || u = v then fail "graph: bad edge (%d,%d)" u v;
    if e > 0 && (eu.(e - 1) > u || (eu.(e - 1) = u && ev.(e - 1) >= v)) then
      fail "graph: edge %d out of order" e
  done;
  let floats name count =
    exactly name (8 * count);
    FA.init count (fun _ -> f64 ())
  in
  let pref = floats "pref" (n * m) in
  let tau = floats "tau" (ne * m) in
  let inst =
    match
      Instance.of_flat ~graph:(Graph.of_edge_arrays ~n eu ev) ~m ~k
        ~lambda:fv.(0) ~pref ~tau
    with
    | exception Invalid_argument e -> fail "instance: %s" e
    | inst -> (
        match Instance.validate inst with
        | Ok () -> inst
        | Error (v :: _) -> fail "instance: %s" (Instance.violation_to_string v)
        | Error [] -> failwith "instance: invalid")
  in
  exactly "assign" (4 * n * k);
  let assign =
    Array.init n (fun u ->
        Array.init k (fun _ ->
            let c = u32 () in
            if c >= m then fail "assign row %d: item %d outside [0,%d)" u c m;
            c))
  in
  exactly "label" (4 * n);
  let label =
    Array.init n (fun _ ->
        let l = u32 () in
        if l >= nshards then fail "label %d outside [0,%d)" l nshards;
        l)
  in
  exactly "ext_of" (4 * n);
  let seen = Hashtbl.create ((2 * n) + 16) in
  let ext_of =
    Array.init n (fun _ ->
        let e = u32 () in
        if e >= next_ext then fail "ext id %d outside [0,%d)" e next_ext;
        if Hashtbl.mem seen e then fail "duplicate ext id %d" e;
        Hashtbl.add seen e ();
        e)
  in
  let len = section "shards" in
  let shards =
    Array.init nshards (fun s ->
        if !at + shard_fixed > len then fail "shard %d: section too short" s;
        let s_obj = f64 () in
        let s_upper = f64 () in
        let flags = u8 () in
        let s_warm_n = i64 () in
        let s_warm_pairs = i64 () in
        let wl = i64 () in
        if not (Float.is_finite s_obj) then
          fail "shard %d: non-finite objective" s;
        if Float.is_nan s_upper then fail "shard %d: NaN upper" s;
        if flags > 3 then fail "shard %d: bad flags %d" s flags;
        if wl < -1 || wl > len - !at then fail "shard %d: bad warm length" s;
        let status _ =
          let v = u8 () in
          if v > 2 then fail "shard %d: warm status %d outside {0,1,2}" s v;
          v
        in
        let s_warm = if wl < 0 then None else Some (Array.init wl status) in
        { s_obj; s_upper; s_degraded = flags land 1 <> 0;
          s_freshened = flags land 2 <> 0; s_warm_n; s_warm_pairs; s_warm })
  in
  if !at <> len then failwith "shards section: trailing bytes";
  if !pos <> size then failwith "trailing data after the last section";
  { inst; assign; label; shards; ext_of; next_ext; tick_no; events_total;
    wal_seqno = Int64.of_int iv.(1); cut_mass = fv.(1); objective_v = fv.(2);
    bound_v = fv.(3); upper_v = fv.(4); seed = iv.(4) }

let load path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      try Ok (decode ic (in_channel_length ic)) with
      | Failure msg | Invalid_argument msg -> Error msg
      | End_of_file -> Error "truncated checkpoint")

let load_latest dir =
  let files = List.rev (list_files dir) in
  let rec go skipped = function
    | [] ->
        Error
          (match skipped with
          | [] -> "no checkpoints found"
          | (_, e) :: _ ->
              Printf.sprintf "no loadable checkpoint (newest: %s)" e)
    | (path, _, _) :: tl -> (
        match load path with
        | Ok s -> Ok (path, s, List.rev skipped)
        | Error e -> go ((path, e) :: skipped) tl)
  in
  go [] files

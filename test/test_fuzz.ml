(* Decoder fuzz suite: every on-disk or on-the-wire decoder is fed
   truncations at random prefixes, single-byte flips and splices of two
   valid inputs. No decoder may raise; a changed checkpoint byte must
   always be an [Error] (every byte sits under a frame CRC or the magic
   line); a damaged WAL streams only a prefix of the records it was
   written with; and any instance a decoder returns passes
   [Instance.validate]. *)

module Rng = Svgic_util.Rng
module Instance = Svgic.Instance
module Serve = Svgic.Serve
module Wal = Svgic.Wal
module Checkpoint = Svgic.Checkpoint
module Serialize = Svgic.Serialize

let read_file = Test_durability.read_file
let write_file = Test_durability.write_file

type mutation =
  | Truncate of int  (** keep this many leading bytes (< length) *)
  | Flip of int * int  (** xor a non-zero mask into one byte *)
  | Splice of int * int  (** prefix of [a] up to i, suffix of [b] from j *)

let apply a b = function
  | Truncate i -> String.sub a 0 i
  | Flip (i, mask) ->
      String.mapi
        (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c)
        a
  | Splice (i, j) ->
      String.sub a 0 i ^ String.sub b j (String.length b - j)

let show = function
  | Truncate i -> Printf.sprintf "truncate at %d" i
  | Flip (i, mask) -> Printf.sprintf "flip byte %d with 0x%02x" i mask
  | Splice (i, j) -> Printf.sprintf "splice a[0,%d) ^ b[%d,..)" i j

(* Mutations of [a] (splicing in [b]), skewed so flips and cuts land
   both in headers and in bulk bodies. *)
let mutation (a, b) =
  let open QCheck.Gen in
  let la = String.length a and lb = String.length b in
  let gen =
    frequency
      [
        (2, map (fun i -> Truncate i) (int_bound (la - 1)));
        ( 3,
          map2
            (fun i mask -> Flip (i, mask))
            (int_bound (la - 1))
            (int_range 1 255) );
        (2, map2 (fun i j -> Splice (i, j)) (int_bound la) (int_bound lb));
      ]
  in
  QCheck.make ~print:show gen

let no_raise what f =
  match f () with
  | r -> r
  | exception e ->
      QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let valid_inst inst =
  match Instance.validate inst with
  | Ok () -> true
  | Error _ -> QCheck.Test.fail_report "decoded instance fails validation"

(* ---- fixtures ---------------------------------------------------- *)

(* Two checkpoints of one engine (a leave between them changes the
   shapes) and the WAL written alongside them, with its records. *)
let dir, ckpt1, ckpt2, wal, wal_records =
  let t = Test_durability.mk_engine 41 in
  let dir = Test_durability.fresh_dir () in
  Serve.enable_durability t
    { Serve.dir; fsync = Wal.Off; checkpoint_every = 1; retain = 4 };
  Test_durability.drive t (Rng.create 42) ~events:4 ~ticks:2;
  let c1 = read_file (Serve.checkpoint t) in
  ignore (Serve.submit t (Serve.Leave 3) : int option);
  Test_durability.drive t (Rng.create 43) ~events:4 ~ticks:2;
  let c2 = read_file (Serve.checkpoint t) in
  Serve.disable_durability t;
  let path = Filename.concat dir "wal.svgic" in
  let recs = ref [] in
  (match Wal.scan ~f:(fun _ r -> recs := r :: !recs) path with
  | Ok _ -> ()
  | Error e -> failwith e);
  (dir, c1, c2, read_file path, List.rev !recs)

let scratch_file name = Filename.concat dir name

let inst1, inst2 =
  let mk seed =
    Serialize.instance_to_string
      (Helpers.random_instance (Rng.create seed) ~n:5 ~m:3 ~k:2)
  in
  (mk 1, mk 2)

let trace =
  "# fuzz trace\n\
   pref 0 3 0.9\n\
   tau 0 1 2 0.4\n\
   tick\n\
   leave 3\n\
   join 0.5,0.4,0.3 0:0.5:0.5 1:0.3:0.2\n\
   tick\n"

let count = 300

(* ---- properties -------------------------------------------------- *)

let prop_checkpoint =
  QCheck.Test.make ~count ~name:"fuzz: checkpoint load"
    (mutation (ckpt1, ckpt2))
    (fun mu ->
      let path = scratch_file "fuzz-ckpt.svgic" in
      write_file path (apply ckpt1 ckpt2 mu);
      match no_raise "Checkpoint.load" (fun () -> Checkpoint.load path) with
      | Error _ -> true
      | Ok snap -> (
          match mu with
          | Truncate _ | Flip _ ->
              QCheck.Test.fail_reportf "changed checkpoint accepted (%s)"
                (show mu)
          | Splice _ -> valid_inst snap.Checkpoint.inst))

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let prop_wal =
  (* spliced with itself, a log skips or repeats a span of records *)
  QCheck.Test.make ~count ~name:"fuzz: wal scan" (mutation (wal, wal))
    (fun mu ->
      let path = scratch_file "fuzz-wal.svgic" in
      write_file path (apply wal wal mu);
      let got = ref [] in
      match
        no_raise "Wal.scan" (fun () ->
            Wal.scan ~f:(fun _ r -> got := r :: !got) path)
      with
      | Error _ -> true
      | Ok _ -> (
          match mu with
          | Truncate _ | Flip _ ->
              is_prefix (List.rev !got) wal_records
              || QCheck.Test.fail_report "streamed records never written"
          | Splice _ -> true))

let prop_serialize =
  QCheck.Test.make ~count ~name:"fuzz: serialize instance_of_string"
    (mutation (inst1, inst2))
    (fun mu ->
      match
        no_raise "Serialize.instance_of_string" (fun () ->
            Serialize.instance_of_string (apply inst1 inst2 mu))
      with
      | Error _ -> true
      | Ok inst -> valid_inst inst)

let prop_trace =
  QCheck.Test.make ~count ~name:"fuzz: serve trace lines"
    (mutation (trace, trace))
    (fun mu ->
      List.for_all
        (fun line ->
          match no_raise "Serve.parse_line" (fun () -> Serve.parse_line line)
          with
          | Ok _ | Error _ -> true)
        (String.split_on_char '\n' (apply trace trace mu)))

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false)
    [ prop_checkpoint; prop_wal; prop_serialize; prop_trace ]

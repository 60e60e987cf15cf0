(* Shared pieces of the three workloads: the instance family, sample
   statistics, the host diagnostic and the run record every workload
   fills in. *)

module Rng = Svgic_util.Rng
module Mclock = Svgic_util.Mclock
module Graph = Svgic_graph.Graph
module Generate = Svgic_graph.Generate
module Instance = Svgic.Instance

let now = Mclock.now_s

(* Every workload draws from the same family: timik-like graphs
   (preferential attachment inside planted communities, 2% cross
   edges), m = 6 items, k = 4 slots, lambda = 0.5. *)
let m = 6
let k = 4

let instance seed ~n ~communities =
  let rng = Rng.create seed in
  let g, labels =
    Generate.timik_like rng ~n ~communities ~attach:2 ~cross_frac:0.02
  in
  let pref = Float.Array.init (n * m) (fun _ -> Rng.float rng 1.0) in
  let tau =
    Float.Array.init (Graph.num_edges g * m) (fun _ -> Rng.float rng 0.5)
  in
  (Instance.of_flat ~graph:g ~m ~k ~lambda:0.5 ~pref ~tau, labels)

(* Child seeds for the i-th item of a run, so that one workload seed
   fixes every instance, schedule and engine stream of the run. *)
let sub_seed seed i = (seed * 1_000_003) + (i * 7_919) + 17

(* Percentile of an ascending array, interpolating linearly between
   the two nearest order statistics (the median of an even count is the
   mean of the middle two). *)
let percentile sorted q =
  let len = Array.length sorted in
  if len = 0 then nan
  else
    let h = q *. float_of_int (len - 1) in
    let i = truncate h in
    let j = min (len - 1) (i + 1) in
    sorted.(i) +. ((h -. float_of_int i) *. (sorted.(j) -. sorted.(i)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

let median a = percentile (sorted_copy a) 0.5
let sum a = Array.fold_left ( +. ) 0.0 a

(* Host diagnostic only: a register-only loop whose duration shows
   which speed regime the host was in. It never gates and never
   normalises another metric. *)
let spin_ms () =
  let t = now () in
  let x = ref 0 in
  for i = 1 to 20_000_000 do
    x := !x + (i land 7)
  done;
  ignore (Sys.opaque_identity !x : int);
  (now () -. t) *. 1e3

let host_spin_ms () = median (Array.init 5 (fun _ -> spin_ms ()))

(* [rm -r]; the durability directories live under the run's work dir. *)
let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* What one run reports. [checks] collects failed correctness gates;
   any entry makes the run incorrect. *)
type run = {
  mutable attempted : int;  (* events submitted + shard solves *)
  mutable failed : int;  (* dropped, degraded, or failing a check *)
  mutable checks : string list;
  mutable e2e : (string * float) list;
  mutable layers : (string * float) list;
  mutable provenance : (string * string) list;
}

let new_run () =
  { attempted = 0; failed = 0; checks = []; e2e = []; layers = [];
    provenance = [] }

(* [n] failed operations (dropped, degraded) of the kind [what]. *)
let fail run n what =
  if n > 0 then begin
    run.failed <- run.failed + n;
    run.checks <- what :: run.checks
  end

let check run ok what = if not ok then fail run 1 what

let e2e run name v = run.e2e <- (name, v) :: run.e2e
let layer run name v = run.layers <- (name, v) :: run.layers
let note run key v = run.provenance <- (key, v) :: run.provenance

(* [a <= b] up to float summation order. *)
let leq a b = a <= b +. (1e-9 *. Float.max 1.0 (Float.abs b))

let peak_rss_mb () =
  match Svgic_util.Rss.peak_rss_bytes () with
  | Some b -> float_of_int b /. 1048576.0
  | None -> nan

(* batch_modularity: the planner's cold path ([svgic solve --shards
   modularity]). Each run solves a fixed number of seeded, unlabelled
   320-user instances: community detection partitions them, then every
   shard gets an exact LP, AVG-D rounding and a branch-and-bound
   certificate, and cut repair polishes the stitched configuration.

   The untraced run times [Shard.partition] + [Shard.solve_round] as
   one request per instance. The traced run re-does each instance
   through the same public functions [solve_round] calls internally,
   timing each layer from outside, and checks that the reproduction
   lands on exactly the configuration [solve_round] returned. *)

open Common
module Shard = Svgic.Shard
module Relaxation = Svgic.Relaxation
module Config = Svgic.Config

let users = 320
let communities = 8

(* About two seconds of solving per instance on a 2-vCPU host, so
   the run's seconds fix the instance count — never a clock reading,
   which would make the work differ between runs. *)
let instances ~seconds = max 1 (int_of_float (Float.round (float_of_int seconds /. 2.0)))

let rounding = Shard.Avg_d { r = None }

(* The untraced request: partition + certified solve. *)
let solve seed inst =
  let t = now () in
  let part = Shard.partition ~labelling:Shard.Modularity inst in
  let res =
    Shard.solve_round ~domains:1 ~certify_integer:true ~rounding
      (Rng.create seed) part
  in
  (now () -. t, res)

let gate run inst (res : Shard.result) =
  let obj = res.Shard.objective in
  let cfg = Config.assignment res.Shard.config in
  check run (Config.validate inst cfg = Ok ()) "batch: invalid configuration";
  check run
    (Float.abs (Config.total_utility inst res.Shard.config -. obj)
    <= 1e-9 *. Float.abs obj)
    "batch: objective does not match the configuration";
  check run (leq res.Shard.bound obj) "batch: bound above objective";
  (match res.Shard.upper_bound with
  | Some up -> check run (Float.is_finite up && leq obj up) "batch: objective above upper"
  | None -> check run false "batch: no upper bound");
  let degraded =
    Array.fold_left (fun a d -> if d then a + 1 else a) 0 res.Shard.degraded
  in
  run.attempted <- run.attempted + Array.length res.Shard.degraded;
  fail run degraded "batch: degraded shards"

(* ---- traced reproduction of Shard.solve_round ------------------- *)

type layers = {
  mutable partition_s : float;
  mutable shards : int;
  mutable cut_pct : float;
  mutable lp_build_s : float;
  mutable relaxation_s : float;
  mutable pivots : int;
  mutable refactorizations : int;
  mutable dense : int;
  mutable revised : int;
  mutable fw : int;
  mutable degraded : int;
  mutable rounding_s : float;
  mutable certify_s : float;
  mutable nodes : int;
  mutable proved : int;
  mutable repair_s : float;
  mutable repair_gain : float;
  mutable total_s : float;
}

let zero_layers () =
  { partition_s = 0.0; shards = 0; cut_pct = 0.0; lp_build_s = 0.0;
    relaxation_s = 0.0; pivots = 0; refactorizations = 0; dense = 0;
    revised = 0; fw = 0; degraded = 0; rounding_s = 0.0; certify_s = 0.0;
    nodes = 0; proved = 0; repair_s = 0.0; repair_gain = 0.0; total_s = 0.0 }

let timed acc f =
  let t = now () in
  let v = f () in
  acc (now () -. t);
  v

(* [Shard.solve_round] pins unresolved Frank-Wolfe backends to one
   domain; the reproduction resolves the backend the same way. *)
let serial_backend inst =
  match Relaxation.choose_backend inst with
  | Relaxation.Frank_wolfe ({ domains = None; _ } as fw) ->
      Relaxation.Frank_wolfe { fw with domains = Some 1 }
  | b -> b

let traced_solve l inst =
  let t0 = now () in
  let part =
    timed
      (fun d -> l.partition_s <- l.partition_s +. d)
      (fun () -> Shard.partition ~labelling:Shard.Modularity inst)
  in
  let nshards = Array.length part.Shard.shards in
  l.shards <- l.shards + nshards;
  l.cut_pct <-
    l.cut_pct
    +. 100.0
       *. float_of_int (Array.length part.Shard.cut_pairs)
       /. float_of_int (max 1 (Instance.num_pairs inst));
  let n = Instance.n inst in
  let assign = Array.make_matrix n k (-1) in
  let upper = ref part.Shard.cut_mass in
  for i = 0 to nshards - 1 do
    let sh = part.Shard.shards.(i) in
    let si = sh.Shard.inst in
    let cfg, shard_upper =
      if Instance.num_pairs si = 0 then
        let cfg = Svgic.Algorithms.top_k_greedy si in
        (cfg, Config.total_utility si cfg)
      else begin
        let backend = serial_backend si in
        (* The build a solve performs, timed by a separate call:
           [Relaxation.solve] builds its own program internally, so
           [relaxation_s] includes a second build. *)
        timed
          (fun d -> l.lp_build_s <- l.lp_build_s +. d)
          (fun () ->
            match backend with
            | Relaxation.Exact_simplex ->
                ignore (Svgic.Lp_build.simp_lp si : Svgic_lp.Problem.t * _)
            | _ ->
                ignore
                  (Svgic.Lp_build.fw_problem si : Svgic_lp.Pairwise_fw.problem));
        let relax =
          timed
            (fun d -> l.relaxation_s <- l.relaxation_s +. d)
            (fun () -> Relaxation.solve ~backend si)
        in
        (match relax.Relaxation.lp_stats with
        | Some s ->
            l.pivots <- l.pivots + s.Relaxation.pivots;
            l.refactorizations <-
              l.refactorizations + s.Relaxation.factor.Svgic_lp.Revised_simplex.refactorizations
        | None -> ());
        (if relax.Relaxation.degraded then l.degraded <- l.degraded + 1
         else if relax.Relaxation.fw_gap <> None then l.fw <- l.fw + 1
         else if relax.Relaxation.lp_stats <> None then l.revised <- l.revised + 1
         else l.dense <- l.dense + 1);
        let cfg =
          timed
            (fun d -> l.rounding_s <- l.rounding_s +. d)
            (fun () -> Svgic.Algorithms.avg_d ~domains:1 si relax)
        in
        let cfg =
          if relax.Relaxation.degraded then
            let g = Svgic.Algorithms.top_k_greedy si in
            if Config.total_utility si g > Config.total_utility si cfg then g
            else cfg
          else cfg
        in
        let cert =
          timed
            (fun d -> l.certify_s <- l.certify_s +. d)
            (fun () -> Relaxation.solve_integer si)
        in
        (match cert.Relaxation.int_stats with
        | Some s -> l.nodes <- l.nodes + s.Relaxation.nodes
        | None -> ());
        if cert.Relaxation.proved then l.proved <- l.proved + 1;
        (cfg, Instance.objective_scale si *. cert.Relaxation.int_bound)
      end
    in
    if Instance.num_pairs si = 0 then l.proved <- l.proved + 1;
    upper := !upper +. shard_upper;
    Array.iteri
      (fun lu g ->
        for s = 0 to k - 1 do
          assign.(g).(s) <- Config.item cfg ~user:lu ~slot:s
        done)
      sh.Shard.users;
    Instance.drop_view_caches si
  done;
  let stitched = Config.make_unchecked assign in
  let config =
    if Array.length part.Shard.cut_pairs = 0 then stitched
    else begin
      let seen = Array.make n false in
      Array.iter
        (fun (u, v) ->
          seen.(u) <- true;
          seen.(v) <- true)
        part.Shard.cut_pairs;
      let endpoints =
        Array.of_seq (Seq.filter (fun u -> seen.(u)) (Seq.init n Fun.id))
      in
      let before = Config.total_utility inst stitched in
      let cfg =
        timed
          (fun d -> l.repair_s <- l.repair_s +. d)
          (fun () -> Svgic.Polish.improve_users ~max_passes:2 inst stitched endpoints)
      in
      l.repair_gain <- l.repair_gain +. (Config.total_utility inst cfg -. before);
      cfg
    end
  in
  l.total_s <- l.total_s +. (now () -. t0);
  (Config.total_utility inst config, !upper)

(* ---- the workload ------------------------------------------------ *)

(* Set-up is timed apart from the requests: three generations of each
   instance, right before it is solved, and the median of the three.
   Spreading these millisecond timings over the whole run keeps them
   off any single fast or slow stretch of the host. *)
let timed_median ~reps f =
  let last = ref None in
  let times =
    Array.init reps (fun _ ->
        Gc.full_major ();
        let t = now () in
        let v = f () in
        let d = now () -. t in
        last := Some v;
        d)
  in
  (median times, Option.get !last)

let run_workload ~seed ~seconds ~trace =
  let run = new_run () in
  let count = instances ~seconds in
  let seeds = Array.init count (sub_seed seed) in
  let setup_s = ref 0.0 in
  let lat = Array.make count 0.0 in
  let objs = Array.make count 0.0 and uppers = Array.make count 0.0 in
  let l = zero_layers () in
  Array.iteri
    (fun i s ->
      let gen_s, inst =
        timed_median ~reps:3 (fun () -> fst (instance s ~n:users ~communities))
      in
      setup_s := !setup_s +. gen_s;
      Gc.full_major ();
      let dt, res = solve s inst in
      gate run inst res;
      lat.(i) <- dt;
      objs.(i) <- res.Shard.objective;
      uppers.(i) <- Option.value res.Shard.upper_bound ~default:infinity;
      if trace then begin
        Gc.full_major ();
        let obj, up = traced_solve l inst in
        check run
          (obj = res.Shard.objective && up = uppers.(i))
          "batch: traced reproduction differs from Shard.solve_round"
      end)
    seeds;
  let sorted = sorted_copy lat in
  let total_obj = sum objs in
  e2e run "setup_s" !setup_s;
  e2e run "objective" (total_obj /. float_of_int count);
  e2e run "cert_gap_pct" (100.0 *. (sum uppers -. total_obj) /. total_obj);
  e2e run "latency_p50_ms" (1e3 *. percentile sorted 0.5);
  e2e run "latency_p90_ms" (1e3 *. percentile sorted 0.9);
  note run "samples" (Printf.sprintf "latency=%d instances setup=3 per instance" count);
  note run "work"
    (Printf.sprintf "instances=%d shard_solves=%d objective=%.17g" count
       run.attempted (total_obj /. float_of_int count));
  if trace then begin
    let per x = x /. float_of_int count in
    let peri x = per (float_of_int x) in
    let layers_s =
      l.partition_s +. l.lp_build_s +. l.relaxation_s +. l.rounding_s
      +. l.certify_s +. l.repair_s
    in
    let shards = float_of_int (max 1 l.shards) in
    List.iter
      (fun (name, v) -> layer run name v)
      [
        ("partition.s", per l.partition_s);
        ("partition.shards", peri l.shards);
        ("partition.cut_pct", per l.cut_pct);
        ("lp_build.s", per l.lp_build_s);
        ("relaxation.s", per l.relaxation_s);
        ("relaxation.pivots", peri l.pivots);
        ("relaxation.refactorizations", peri l.refactorizations);
        ("relaxation.dense_shards", peri l.dense);
        ("relaxation.revised_shards", peri l.revised);
        ("relaxation.fw_shards", peri l.fw);
        ("relaxation.degraded_shards", peri l.degraded);
        ("rounding.s", per l.rounding_s);
        ("certify.s", per l.certify_s);
        ("certify.nodes", peri l.nodes);
        ("certify.proved_pct", 100.0 *. float_of_int l.proved /. shards);
        ("repair.s", per l.repair_s);
        ("repair.gain", per l.repair_gain);
        ("solve.s", per l.total_s);
        ("unattributed_pct", 100.0 *. (l.total_s -. layers_s) /. l.total_s);
        ( "trace.overhead_pct",
          100.0 *. (l.total_s -. sum lat) /. sum lat );
      ]
  end;
  run

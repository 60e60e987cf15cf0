(* Benchmark entry point:
     perfbench --workload W --seed N --seconds S --trace 0|1 [--rev R]
   Prints provenance lines, then one JSON object as the last line of
   stdout. With --trace 0 it carries the end-to-end metrics, with
   --trace 1 the per-layer ones. Exits 1 when any correctness gate
   failed, 2 on bad arguments. See README.md in this directory. *)

open Common

(* Names and units; BENCHMARK.json lists the same vocabulary. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("objective", "utility");
    ("cert_gap_pct", "%");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_rss_mb", "MB");
    ("ok_pct", "%");
  ]

let per_layer =
  [
    ("partition.s", "s"); ("partition.shards", "count"); ("partition.cut_pct", "%");
    ("lp_build.s", "s"); ("relaxation.s", "s"); ("relaxation.pivots", "count");
    ("relaxation.refactorizations", "count"); ("relaxation.dense_shards", "count");
    ("relaxation.revised_shards", "count"); ("relaxation.fw_shards", "count");
    ("relaxation.degraded_shards", "count"); ("rounding.s", "s"); ("certify.s", "s");
    ("certify.nodes", "count"); ("certify.proved_pct", "%"); ("repair.s", "s");
    ("repair.gain", "utility"); ("solve.s", "s"); ("unattributed_pct", "%");
    ("trace.overhead_pct", "%"); ("coalesce.ns_per_event", "ns"); ("plan.ms", "ms");
    ("tick.p50_ms", "ms"); ("tick.p90_ms", "ms"); ("tick.shards_touched", "count");
    ("tick.warm_hit_pct", "%"); ("tick.structural_pct", "%");
    ("tick.events_applied", "count"); ("tick.events_dropped", "count");
    ("event.p99_ms", "ms"); ("schedule.busy_pct", "%"); ("schedule.late_ticks_pct", "%");
    ("wal.bytes_per_event", "bytes"); ("wal.append_ns", "ns"); ("wal.sync_ms", "ms");
    ("checkpoint.write_ms", "ms"); ("checkpoint.bytes", "bytes");
    ("checkpoint.load_ms", "ms"); ("recover.s", "s"); ("recover.scan_ms", "ms");
    ("recover.replay_ms", "ms"); ("audit.ms", "ms"); ("disk.mb", "MB");
    ("host.spin_ms", "ms");
  ]

let workloads = [ "batch_modularity"; "serve_hot"; "serve_churn_durable" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload batch_modularity|serve_hot|serve_churn_durable \
     --seed N --seconds S --trace 0|1 [--rev R]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and rev = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := (try int_of_string v with _ -> usage ()); parse rest
    | "--seconds" :: v :: rest -> seconds := (try int_of_string v with _ -> usage ()); parse rest
    | "--trace" :: v :: rest -> trace := (try int_of_string v with _ -> usage ()); parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds < 1
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  let trace = !trace = 1 in
  let work_dir =
    Filename.concat ".perfbench-work" (string_of_int (Unix.getpid ()))
  in
  Svgic.Checkpoint.ensure_dir work_dir;
  let spin = if trace then host_spin_ms () else 0.0 in
  let run =
    Fun.protect
      ~finally:(fun () ->
        remove_tree work_dir;
        try Sys.rmdir ".perfbench-work" with Sys_error _ -> ())
      (fun () ->
        match !workload with
        | "batch_modularity" -> Batch.run_workload ~seed:!seed ~seconds:!seconds ~trace
        | "serve_hot" ->
            Serving.run_workload Serving.Hot ~seed:!seed ~seconds:!seconds ~trace ~work_dir
        | _ ->
            Serving.run_workload Serving.Churn_durable ~seed:!seed ~seconds:!seconds
              ~trace ~work_dir)
  in
  e2e run "peak_rss_mb" (peak_rss_mb ());
  e2e run "ok_pct"
    (100.0 *. float_of_int (run.attempted - run.failed)
    /. float_of_int (max 1 run.attempted));
  if trace then
    (* before and after the work: a run can straddle two regimes *)
    layer run "host.spin_ms" ((spin +. host_spin_ms ()) /. 2.0);
  let vocabulary, values =
    if trace then (per_layer, run.layers) else (end_to_end, run.e2e)
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name values) ~default:0.0 in
        check run (Float.is_finite v) ("non-finite metric " ^ name);
        (name, unit, if Float.is_finite v then v else 0.0))
      vocabulary
  in
  let correct = run.checks = [] in
  List.iter (fun c -> prerr_endline ("CHECK FAILED: " ^ c)) (List.rev run.checks);
  Printf.printf "provenance: workload=%s seed=%d seconds=%d trace=%d rev=%s nproc=%d domains=1\n"
    !workload !seed !seconds (if trace then 1 else 0) !rev
    (Domain.recommended_domain_count ());
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) (List.rev run.provenance);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct run.attempted run.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
          metrics));
  exit (if correct then 0 else 1)

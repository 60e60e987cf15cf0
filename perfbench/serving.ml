(* serve_hot and serve_churn_durable: a long-lived [Serve] engine fed
   an open-loop event stream.

   Serving runs in schedule time. Events arrive at seeded times; tick i
   applies exactly the events that arrived in ((i-1)·dt, i·dt] and
   starts at max(i·dt, end of tick i-1). The generator never sleeps:
   the schedule clock advances by the measured tick durations, so the
   batches are fixed by the seed while a slow tick still delays every
   later event. An event's latency runs from its arrival to the end of
   the tick that applied it. *)

open Common
module Shard = Svgic.Shard
module Serve = Svgic.Serve
module Wal = Svgic.Wal
module Checkpoint = Svgic.Checkpoint

let users = 4000
let communities = 100

type kind = Hot | Churn_durable

(* Tick intervals: the arrival rates below keep the engine under ~50%
   busy even in the host's slow regime, so tick slowdowns do not turn
   into queueing blow-ups. *)
let tick_interval = function Hot -> 0.2 | Churn_durable -> 0.5

(* Turns the run's seconds into a fixed tick count — never a clock
   reading, which would make the work differ between runs. *)
let ticks_per_second = 5

(* Every 4th tick checkpoints: a quarter of the ticks, so neither the
   tick p50 (inside the plain ticks) nor the tick p90 (inside the
   checkpoint ticks) sits on the boundary between the two modes. *)
let checkpoint_every = 4

type arrival = { at : float; ev : Serve.event }

(* ---- schedules ---------------------------------------------------- *)

let poisson_times rng ~rate ~lo ~hi =
  let rec go t acc =
    let t = t +. Rng.exponential rng ~rate in
    if t > hi then List.rev acc else go t (t :: acc)
  in
  go lo []

(* Value drift only: 90% of events land in the 8 hot shards, 90% of
   them preference deltas and 10% τ deltas on an edge leaving a user of
   the same pool. ~40 events per 200 ms tick. *)
let hot_schedule seed inst labels ~ticks ~dt =
  let rng = Rng.create seed in
  let n = Instance.n inst in
  let hot = Array.of_seq (Seq.filter (fun u -> labels.(u) < 8) (Seq.init n Fun.id)) in
  let edges = Graph.edges (Instance.graph inst) in
  let hot_edges = Array.of_seq (Seq.filter (fun (u, _) -> labels.(u) < 8) (Array.to_seq edges)) in
  let batches = Array.make (ticks + 1) [||] in
  for i = 1 to ticks do
    let lo = float_of_int (i - 1) *. dt in
    let times = poisson_times rng ~rate:200.0 ~lo ~hi:(lo +. dt) in
    batches.(i) <-
      Array.of_list
        (List.map
           (fun at ->
             let in_hot = Rng.bernoulli rng 0.9 in
             let ev =
               if Rng.bernoulli rng 0.9 then
                 let user = if in_hot then Rng.pick rng hot else Rng.int rng n in
                 Serve.Pref_delta { user; item = Rng.int rng m; value = Rng.uniform rng }
               else
                 let u, v = Rng.pick rng (if in_hot then hot_edges else edges) in
                 Serve.Tau_delta { u; v; item = Rng.int rng m; value = 0.5 *. Rng.uniform rng }
             in
             { at; ev })
           times)
  done;
  batches

(* Churn: every window holds exactly one join and one leave (so every
   tick is structural and tick times stay unimodal) plus Poisson
   preference deltas at 18/s on users that are live at the window's
   start and not leaving in it. Ids follow the engine's mint order: the
   join of window i gets external id n + i - 1. Window [ticks + 1] is
   the trailing batch left pending at the end. *)
let churn_schedule seed inst ~ticks ~dt =
  let rng = Rng.create seed in
  let n = Instance.n inst in
  let live = ref (Array.init n Fun.id) in
  let batches = Array.make (ticks + 2) [||] in
  for i = 1 to ticks + 1 do
    let lo = float_of_int (i - 1) *. dt in
    let cur = !live in
    let li = Rng.int rng (Array.length cur) in
    let leaver = cur.(li) in
    let stay = Array.append (Array.sub cur 0 li) (Array.sub cur (li + 1) (Array.length cur - li - 1)) in
    let f1 = Rng.pick rng stay in
    let f2 = Rng.pick rng stay in
    let friends = if f1 = f2 then [| f1 |] else [| min f1 f2; max f1 f2 |] in
    let out_t = Array.init m (fun _ -> 0.5 *. Rng.uniform rng) in
    let in_t = Array.init m (fun _ -> 0.5 *. Rng.uniform rng) in
    let profile =
      { Svgic.Dynamic.pref = Array.init m (fun _ -> Rng.uniform rng);
        tau_out = (fun _ c -> out_t.(c)); tau_in = (fun _ c -> in_t.(c));
        friends }
    in
    let at () = lo +. (dt *. (1.0 -. Rng.uniform rng)) in
    let structural =
      [ { at = at (); ev = Serve.Leave leaver }; { at = at (); ev = Serve.Join profile } ]
    in
    let deltas =
      List.map
        (fun at ->
          { at; ev = Serve.Pref_delta { user = Rng.pick rng stay; item = Rng.int rng m; value = Rng.uniform rng } })
        (poisson_times rng ~rate:18.0 ~lo ~hi:(lo +. dt))
    in
    let batch = Array.of_list (structural @ deltas) in
    Array.stable_sort (fun a b -> compare a.at b.at) batch;
    batches.(i) <- batch;
    live := Array.append stay [| n + i - 1 |]
  done;
  batches

(* ---- engine set-up ------------------------------------------------ *)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

type engine = {
  srv : Serve.t;
  labels : int array;
  ticks : int;
  batches : arrival array array;  (* index i: the events tick i applies *)
  dir : string option;
}

(* Instance + schedule generation + the cold solve of every shard
   (time to the first configuration) + the initial checkpoint: the
   set-up a session pays before it takes traffic. *)
let setup kind ~seed ~ticks ~work_dir ~periodic =
  let inst, labels = instance seed ~n:users ~communities in
  let dt = tick_interval kind in
  let batches =
    match kind with
    | Hot -> hot_schedule (seed + 1) inst labels ~ticks ~dt
    | Churn_durable -> churn_schedule (seed + 1) inst ~ticks ~dt
  in
  let srv =
    Serve.create ~domains:1 ~labelling:(Shard.Labels labels) (Rng.create (seed + 2)) inst
  in
  let dir =
    match kind with
    | Hot -> None
    | Churn_durable ->
        remove_tree work_dir;
        Serve.enable_durability srv
          { Serve.dir = work_dir; fsync = Wal.Every_tick;
            checkpoint_every = (if periodic then checkpoint_every else max_int);
            retain = 2 };
        Some work_dir
  in
  { srv; labels; ticks; batches; dir }

(* ---- the timed phase --------------------------------------------- *)

type phase = {
  ticks : int;
  busy : float array;  (* per tick: submit + tick (+ explicit checkpoint) *)
  latencies : float array;  (* per event *)
  submit_s : float;
  plan_s : float;
  ckpt_s : float array;
  late : int;
  touched : int;
  warm : int;
  structural : int;
  applied : int;
  dropped : int;
  events : int;
}

(* [traced] adds the planning call and, on the durable engine, moves
   the periodic checkpoint out of the tick into an explicit, timed
   [Serve.checkpoint] at the same cadence. *)
let serve_phase run kind (e : engine) ~traced =
  let dt = tick_interval kind in
  let ticks = e.ticks in
  let busy = Array.make ticks 0.0 in
  let lat = ref [] and ckpt = ref [] in
  let submit_s = ref 0.0 and plan_s = ref 0.0 in
  let late = ref 0 and touched = ref 0 and warm = ref 0 and structural = ref 0 in
  let applied = ref 0 and dropped = ref 0 and events = ref 0 in
  let end_prev = ref 0.0 in
  let next_ext = ref users in
  for i = 1 to ticks do
    let due = float_of_int i *. dt in
    if !end_prev > due then incr late;
    let start = Float.max due !end_prev in
    let batch = e.batches.(i) in
    let t0 = now () in
    Array.iter
      (fun a ->
        match Serve.submit e.srv a.ev with
        | Some ext ->
            check run (ext = !next_ext) "serve: join minted an unexpected id";
            incr next_ext
        | None -> ())
      batch;
    let t1 = now () in
    submit_s := !submit_s +. (t1 -. t0);
    let tp = ref 0.0 in
    if traced then begin
      ignore (Serve.touched_preview e.srv : int array);
      tp := now () -. t1;
      plan_s := !plan_s +. !tp
    end;
    let t2 = now () in
    let st = Serve.tick e.srv in
    let tick_s = now () -. t2 in
    let ck =
      if traced && e.dir <> None && i mod checkpoint_every = 0 then begin
        let t = now () in
        ignore (Serve.checkpoint e.srv : string);
        let d = now () -. t in
        ckpt := d :: !ckpt;
        d
      end
      else 0.0
    in
    let d = (t1 -. t0) +. !tp +. tick_s +. ck in
    busy.(i - 1) <- d;
    end_prev := start +. d;
    Array.iter (fun a -> lat := (!end_prev -. a.at) :: !lat) batch;
    let nev = Array.length batch in
    events := !events + nev;
    touched := !touched + st.Serve.shards_touched;
    warm := !warm + st.Serve.warm_hits;
    if st.Serve.structural then incr structural;
    applied := !applied + st.Serve.events_applied;
    dropped := !dropped + st.Serve.events_dropped;
    run.attempted <- run.attempted + nev + st.Serve.shards_touched;
    fail run st.Serve.events_dropped "serve: dropped events";
    fail run st.Serve.degraded "serve: degraded shards";
    check run
      (Float.is_finite st.Serve.objective && leq st.Serve.bound st.Serve.objective)
      (Printf.sprintf "serve: bracket broken after tick %d" i);
    check run (kind = Hot || st.Serve.structural) "serve: churn tick was not structural"
  done;
  let report = Serve.audit e.srv in
  check run report.Serve.audit_ok "serve: final audit failed";
  { ticks; busy; latencies = Array.of_list !lat; submit_s = !submit_s; plan_s = !plan_s;
    ckpt_s = Array.of_list !ckpt; late = !late; touched = !touched; warm = !warm;
    structural = !structural; applied = !applied; dropped = !dropped; events = !events }

(* ---- crash and recovery (durable engine only) -------------------- *)

type recovery = {
  recover_s : float;
  audit_s : float;
  disk_mb : float;
  scan_ms : float;
  load_ms : float;
  wal_append_ns : float;
  wal_sync_ms : float;
  wal_bytes : int;
  ckpt_bytes : int;
}

(* The trailing batch stays pending, the live fingerprint is taken and
   the engine is dropped; recovery must rebuild exactly that state. *)
let crash_and_recover run (e : engine) ~dir ~traced ~scratch =
  let trailing = e.batches.(e.ticks + 1) in
  Array.iter (fun a -> ignore (Serve.submit e.srv a.ev : int option)) trailing;
  run.attempted <- run.attempted + Array.length trailing;
  let fp = Serve.fingerprint e.srv in
  let wal_bytes = Serve.wal_bytes e.srv in
  let disk = dir_bytes dir in
  let ckpt_bytes =
    match List.rev (Checkpoint.list_files dir) with
    | (p, _, _) :: _ -> (Unix.stat p).Unix.st_size
    | [] -> 0
  in
  Serve.disable_durability e.srv;
  let wal_path = Filename.concat dir "wal.svgic" in
  let scan_ms, load_ms, records =
    if not traced then (0.0, 0.0, [])
    else begin
      let t = now () in
      let recs = ref [] in
      (match Wal.scan ~f:(fun _ r -> recs := r :: !recs) wal_path with
      | Ok _ -> ()
      | Error msg -> check run false ("churn: WAL scan: " ^ msg));
      let scan = now () -. t in
      let t = now () in
      (match Checkpoint.load_latest dir with
      | Ok _ -> ()
      | Error msg -> check run false ("churn: checkpoint load: " ^ msg));
      (1e3 *. scan, 1e3 *. (now () -. t), List.rev !recs)
    end
  in
  Gc.full_major ();
  let t = now () in
  let recovered = Serve.recover ~domains:1 ~dir () in
  let recover_s = now () -. t in
  let audit_s =
    match recovered with
    | Error msg ->
        check run false ("churn: recover: " ^ msg);
        0.0
    | Ok (r, _) ->
        let t = now () in
        let report = Serve.audit r in
        let audit_s = now () -. t in
        check run report.Serve.audit_ok "churn: audit after recovery failed";
        check run (Serve.fingerprint r = fp) "churn: recovered fingerprint differs from the live one";
        Serve.disable_durability r;
        audit_s
  in
  (* WAL layer: the run's own records replayed into a side writer. *)
  let wal_append_ns, wal_sync_ms =
    if not traced then (0.0, 0.0)
    else begin
      remove_tree scratch;
      Checkpoint.ensure_dir scratch;
      let path = Filename.concat scratch "wal.svgic" in
      let w = Wal.create ~path ~m ~policy:Wal.Off in
      let t = now () in
      List.iter (fun r -> ignore (Wal.append w r : int64)) records;
      let append = (now () -. t) /. float_of_int (max 1 (List.length records)) in
      Wal.close w;
      let w = Wal.create ~path ~m ~policy:Wal.Every_tick in
      let syncs = 16 in
      let t = now () in
      for i = 1 to syncs do
        ignore (Wal.append w (Wal.Tick i) : int64)
      done;
      let sync = (now () -. t) /. float_of_int syncs in
      Wal.close w;
      remove_tree scratch;
      (1e9 *. append, 1e3 *. sync)
    end
  in
  { recover_s; audit_s; disk_mb = float_of_int disk /. 1048576.0; scan_ms; load_ms;
    wal_append_ns; wal_sync_ms; wal_bytes; ckpt_bytes }

(* ---- the workload ------------------------------------------------ *)

(* A run is [sessions] independent engine lifetimes on their own seeded
   instances, each set up and then served for a third of the run's
   ticks. The host drifts between speed regimes lasting 10-20 s;
   interleaving set-ups with timed phases spreads the timed samples of
   one run over its whole wall time instead of one stretch. *)
let sessions = 3

type session = { p : phase; obj : float; bound : float; rcv : recovery option }

let run_session run kind ~seed ~ticks ~dir ~scratch ~traced =
  Gc.full_major ();
  let t = now () in
  let e = setup kind ~seed ~ticks ~work_dir:dir ~periodic:(not traced) in
  let setup_s = now () -. t in
  Gc.full_major ();
  let p = serve_phase run kind e ~traced in
  let rcv =
    Option.map (fun d -> crash_and_recover run e ~dir:d ~traced ~scratch) e.dir
  in
  remove_tree dir;
  (setup_s, e.labels, { p; obj = Serve.objective e.srv; bound = Serve.bound e.srv; rcv })

let run_workload kind ~seed ~seconds ~trace ~work_dir =
  let run = new_run () in
  let ticks = max 1 (((seconds * ticks_per_second) + sessions - 1) / sessions) in
  let dir = Filename.concat work_dir "durable" in
  let scratch = Filename.concat work_dir "side" in
  let seeds = Array.init sessions (sub_seed seed) in
  let go ~traced s = run_session run kind ~seed:s ~ticks ~dir ~scratch ~traced in
  let plain = Array.map (go ~traced:false) seeds in
  let ss = Array.map (fun (_, _, x) -> x) plain in
  let cat f xs = Array.concat (Array.to_list (Array.map f xs)) in
  let fl = float_of_int in
  let total f xs = Array.fold_left (fun a x -> a + f x) 0 xs in
  let lat = sorted_copy (cat (fun x -> x.p.latencies) ss) in
  let busy xs = sum (cat (fun x -> x.p.busy) xs) in
  let obj = sum (Array.map (fun x -> x.obj) ss) in
  let bound = sum (Array.map (fun x -> x.bound) ss) in
  e2e run "setup_s" (median (Array.map (fun (t, _, _) -> t) plain));
  e2e run "objective" (obj /. fl sessions);
  e2e run "cert_gap_pct" (100.0 *. (obj -. bound) /. obj);
  e2e run "latency_p50_ms" (1e3 *. percentile lat 0.5);
  e2e run "latency_p90_ms" (1e3 *. percentile lat 0.9);
  note run "samples"
    (Printf.sprintf "latency=%d events busy=%d ticks setup=%d sessions"
       (Array.length lat) (total (fun x -> x.p.ticks) ss) sessions);
  note run "work"
    (Printf.sprintf "sessions=%d ticks=%d events=%d applied=%d shard_solves=%d objective=%.17g%s"
       sessions (total (fun x -> x.p.ticks) ss) (total (fun x -> x.p.events) ss)
       (total (fun x -> x.p.applied) ss) (total (fun x -> x.p.touched) ss) (obj /. fl sessions)
       (match kind with
       | Hot -> ""
       | Churn_durable ->
           Printf.sprintf " disk_bytes=%.0f"
             (sum (Array.map (fun x -> match x.rcv with Some r -> r.disk_mb *. 1048576.0 | None -> 0.0) ss))));
  if trace then begin
    (* The same sessions again, traced; the difference in busy time
       against the untraced sessions above is the tracing overhead. *)
    let traced = Array.map (go ~traced:true) seeds in
    let ts = Array.map (fun (_, _, x) -> x) traced in
    let _, labels0, _ = traced.(0) in
    let t = now () in
    let part =
      Shard.partition ~labelling:(Shard.Labels labels0)
        (fst (instance seeds.(0) ~n:users ~communities))
    in
    let partition_s = now () -. t in
    let tb = sorted_copy (cat (fun x -> x.p.busy) ts) in
    let tl = sorted_copy (cat (fun x -> x.p.latencies) ts) in
    let nticks = fl (total (fun x -> x.p.ticks) ts) in
    let nevents = fl (total (fun x -> x.p.events) ts) in
    let touched = fl (total (fun x -> x.p.touched) ts) in
    let mean_rcv f =
      match kind with
      | Hot -> 0.0
      | Churn_durable ->
          sum (Array.map (fun x -> match x.rcv with Some r -> f r | None -> nan) ts)
          /. fl sessions
    in
    let ckpts = cat (fun x -> x.p.ckpt_s) ts in
    let ck = if Array.length ckpts = 0 then 0.0 else 1e3 *. sum ckpts /. fl (Array.length ckpts) in
    List.iter
      (fun (k, v) -> layer run k v)
      [
        ("partition.s", partition_s);
        ("partition.shards", fl (Array.length part.Shard.shards));
        ( "partition.cut_pct",
          100.0 *. fl (Array.length part.Shard.cut_pairs)
          /. fl (max 1 (Instance.num_pairs part.Shard.source)) );
        ("coalesce.ns_per_event", 1e9 *. sum (Array.map (fun x -> x.p.submit_s) ts) /. nevents);
        ("plan.ms", 1e3 *. sum (Array.map (fun x -> x.p.plan_s) ts) /. nticks);
        ("tick.p50_ms", 1e3 *. percentile tb 0.5);
        ("tick.p90_ms", 1e3 *. percentile tb 0.9);
        ("tick.shards_touched", touched /. nticks);
        ("tick.warm_hit_pct", 100.0 *. fl (total (fun x -> x.p.warm) ts) /. Float.max 1.0 touched);
        ("tick.structural_pct", 100.0 *. fl (total (fun x -> x.p.structural) ts) /. nticks);
        ("tick.events_applied", fl (total (fun x -> x.p.applied) ts));
        ("tick.events_dropped", fl (total (fun x -> x.p.dropped) ts));
        ("event.p99_ms", 1e3 *. percentile tl 0.99);
        ("schedule.busy_pct", 100.0 *. sum tb /. (nticks *. tick_interval kind));
        ("schedule.late_ticks_pct", 100.0 *. fl (total (fun x -> x.p.late) ts) /. nticks);
        ("wal.bytes_per_event", mean_rcv (fun r -> fl r.wal_bytes) *. fl sessions /. nevents);
        ("wal.append_ns", mean_rcv (fun r -> r.wal_append_ns));
        ("wal.sync_ms", mean_rcv (fun r -> r.wal_sync_ms));
        ("checkpoint.write_ms", ck);
        ("checkpoint.bytes", mean_rcv (fun r -> fl r.ckpt_bytes));
        ("checkpoint.load_ms", mean_rcv (fun r -> r.load_ms));
        ("recover.s", mean_rcv (fun r -> r.recover_s));
        ("recover.scan_ms", mean_rcv (fun r -> r.scan_ms));
        ("recover.replay_ms", mean_rcv (fun r -> (1e3 *. r.recover_s) -. r.load_ms -. r.scan_ms));
        ("audit.ms", mean_rcv (fun r -> 1e3 *. r.audit_s));
        ("disk.mb", mean_rcv (fun r -> r.disk_mb));
        ("trace.overhead_pct", 100.0 *. (busy ts -. busy ss) /. busy ss);
      ]
  end;
  run

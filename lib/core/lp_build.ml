module Problem = Svgic_lp.Problem

type var_maps = {
  x_var : int -> int -> int -> int;
  y_var : int -> int -> int -> int;
}

(* Shared construction of the slot-indexed program; [relaxed] controls
   nothing here (integrality lives in the solver), but the variable
   layout and constraints are common to [full_lp] and [ip]. *)
let build_slot_indexed inst =
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  let np = Instance.num_pairs inst in
  let problem = Problem.create () in
  (* x variables: u-major, then c, then s. *)
  let x_var u c s = (((u * m) + c) * k) + s in
  for u = 0 to n - 1 do
    for c = 0 to m - 1 do
      for s = 0 to k - 1 do
        let idx =
          Problem.add_var problem ~upper:1.0
            ~obj:(Instance.scaled_pref_at inst u c)
            ()
        in
        assert (idx = x_var u c s)
      done
    done
  done;
  let x_count = n * m * k in
  let y_var e c s = x_count + (((e * m) + c) * k) + s in
  for e = 0 to np - 1 do
    for c = 0 to m - 1 do
      for s = 0 to k - 1 do
        let idx =
          Problem.add_var problem ~upper:1.0
            ~obj:(Instance.pair_weight inst e c)
            ()
        in
        assert (idx = y_var e c s)
      done
    done
  done;
  (* (1) no-duplication: sum_s x(u,c,s) <= 1. *)
  for u = 0 to n - 1 do
    for c = 0 to m - 1 do
      Problem.add_row problem
        (List.init k (fun s -> (x_var u c s, 1.0)))
        Problem.Le 1.0
    done
  done;
  (* (2) one item per slot: sum_c x(u,c,s) = 1. *)
  for u = 0 to n - 1 do
    for s = 0 to k - 1 do
      Problem.add_row problem
        (List.init m (fun c -> (x_var u c s, 1.0)))
        Problem.Eq 1.0
    done
  done;
  (* (5)(6) co-display: y(e,c,s) <= x(u,c,s) and <= x(v,c,s). *)
  Instance.iter_pairs inst (fun e u v ->
      for c = 0 to m - 1 do
        for s = 0 to k - 1 do
          Problem.add_row problem
            [ (y_var e c s, 1.0); (x_var u c s, -1.0) ]
            Problem.Le 0.0;
          Problem.add_row problem
            [ (y_var e c s, 1.0); (x_var v c s, -1.0) ]
            Problem.Le 0.0
        done
      done);
  (problem, { x_var; y_var })

let full_lp inst = build_slot_indexed inst

let ip inst =
  let problem, maps = build_slot_indexed inst in
  let n = Instance.n inst
  and m = Instance.m inst
  and k = Instance.k inst in
  let binaries = Array.make (n * m * k) 0 in
  let idx = ref 0 in
  for u = 0 to n - 1 do
    for c = 0 to m - 1 do
      for s = 0 to k - 1 do
        binaries.(!idx) <- maps.x_var u c s;
        incr idx
      done
    done
  done;
  (problem, binaries, maps)

(* LP_SIMP with one co-display row per (pair, item). The paper's
   [y(e,c) <= x(u,c)], [y(e,c) <= x(v,c)] pair is replaced by the
   substitution [y = x(u,c) - s(e,c)] with [s >= 0] and no upper bound
   ([u] the pair's first endpoint), leaving the single row
   [x(u,c) - x(v,c) - s(e,c) <= 0]. The pair weight moves into
   [x(u,c)]'s cost and [s] costs [-w]. At any optimum
   [s = max(0, x(u,c) - x(v,c))], so [y = min(x(u,c), x(v,c))] and
   [0 <= y <= 1] hold without rows of their own. *)
let simp_lp inst =
  let n = Instance.n inst and m = Instance.m inst in
  let k = float_of_int (Instance.k inst) in
  let np = Instance.num_pairs inst in
  let problem = Problem.create () in
  let x_var u c = (u * m) + c in
  let x_cost =
    Array.init (n * m) (fun i -> Instance.scaled_pref_at inst (i / m) (i mod m))
  in
  Instance.iter_pairs inst (fun e u _ ->
      for c = 0 to m - 1 do
        x_cost.(x_var u c) <- x_cost.(x_var u c) +. Instance.pair_weight inst e c
      done);
  Array.iteri
    (fun i obj ->
      let idx = Problem.add_var problem ~upper:1.0 ~obj () in
      assert (idx = i))
    x_cost;
  let s_var e c = (n * m) + (e * m) + c in
  for e = 0 to np - 1 do
    for c = 0 to m - 1 do
      let idx =
        Problem.add_var problem ~obj:(-.Instance.pair_weight inst e c) ()
      in
      assert (idx = s_var e c)
    done
  done;
  for u = 0 to n - 1 do
    Problem.add_row problem
      (List.init m (fun c -> (x_var u c, 1.0)))
      Problem.Eq k
  done;
  Instance.iter_pairs inst (fun e u v ->
      for c = 0 to m - 1 do
        Problem.add_row problem
          [ (x_var u c, 1.0); (x_var v c, -1.0); (s_var e c, -1.0) ]
          Problem.Le 0.0
      done);
  (problem, x_var)

(* Column statuses in [Revised_simplex.vbasis] encoding. *)
let basic = 0
and at_lower = 1
and at_upper = 2

(* The crash start over [simp_lp]'s layout: columns are the n·m x's,
   then the np·m s's, then one logical per row (n user rows, then the
   np·m co-display rows). Each user's top-k items by
   [scaled_pref + ½·Σ incident pair weight] sit at 1, the weakest of
   them basic in the user row, so the user row's dual prices the
   selection; per co-display row either [s] (when [x(u,c) > x(v,c)])
   or the row logical is basic. In row order user rows then
   co-display rows, the basis is block lower-triangular with unit
   diagonal, and its vertex satisfies every row. *)
let simp_crash_basis inst =
  let n = Instance.n inst and m = Instance.m inst and k = Instance.k inst in
  let np = Instance.num_pairs inst in
  let score =
    Array.init n (fun u -> Array.init m (fun c -> Instance.scaled_pref_at inst u c))
  in
  Instance.iter_pairs inst (fun e u v ->
      for c = 0 to m - 1 do
        let half = 0.5 *. Instance.pair_weight inst e c in
        score.(u).(c) <- score.(u).(c) +. half;
        score.(v).(c) <- score.(v).(c) +. half
      done);
  let x_count = n * m in
  let nv = x_count + (np * m) in
  let stat = Array.make (nv + n + (np * m)) at_lower in
  let selected = Array.make x_count false in
  for u = 0 to n - 1 do
    let top = Svgic_util.Select.top_k k score.(u) in
    Array.iteri
      (fun rank c ->
        selected.((u * m) + c) <- true;
        stat.((u * m) + c) <- (if rank = Array.length top - 1 then basic else at_upper))
      top
  done;
  Instance.iter_pairs inst (fun e u v ->
      for c = 0 to m - 1 do
        let row = (e * m) + c in
        if selected.((u * m) + c) && not selected.((v * m) + c) then
          stat.(x_count + row) <- basic
        else stat.(nv + n + row) <- basic
      done);
  Svgic_lp.Revised_simplex.vbasis_of_entries stat

let fw_problem inst =
  let weights = Instance.pair_weights inst in
  Svgic_lp.Pairwise_fw.
    {
      n = Instance.n inst;
      m = Instance.m inst;
      k = Instance.k inst;
      linear = Instance.scaled_pref inst;
      pairs =
        Array.init (Instance.num_pairs inst) (fun e ->
            (Instance.pair_fst inst e, Instance.pair_snd inst e, weights.(e)));
    }

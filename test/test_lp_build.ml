(* The one-row LP_SIMP against the paper's two-row form, the crash
   basis that starts cold solves, and the shape the backend choice
   reads off without building the program. *)

module Problem = Svgic_lp.Problem
module Revised = Svgic_lp.Revised_simplex
module Branch_bound = Svgic_lp.Branch_bound
module Rng = Svgic_util.Rng
module Graph = Svgic_graph.Graph
module Instance = Svgic.Instance
module Lp_build = Svgic.Lp_build
module Relaxation = Svgic.Relaxation

(* Oracle: LP_SIMP as Section 4.4 writes it, with variables x(u,c) and
   y(e,c) in [0, 1] and two co-display rows y <= x(u,c), y <= x(v,c)
   per pair and item. *)
let simp_lp_two_row inst =
  let n = Instance.n inst and m = Instance.m inst in
  let k = float_of_int (Instance.k inst) in
  let np = Instance.num_pairs inst in
  let problem = Problem.create () in
  let x_var u c = (u * m) + c in
  for u = 0 to n - 1 do
    for c = 0 to m - 1 do
      ignore
        (Problem.add_var problem ~upper:1.0
           ~obj:(Instance.scaled_pref_at inst u c)
           ())
    done
  done;
  let y_var e c = (n * m) + (e * m) + c in
  for e = 0 to np - 1 do
    for c = 0 to m - 1 do
      ignore
        (Problem.add_var problem ~upper:1.0 ~obj:(Instance.pair_weight inst e c) ())
    done
  done;
  for u = 0 to n - 1 do
    Problem.add_row problem (List.init m (fun c -> (x_var u c, 1.0))) Problem.Eq k
  done;
  Instance.iter_pairs inst (fun e u v ->
      for c = 0 to m - 1 do
        Problem.add_row problem [ (y_var e c, 1.0); (x_var u c, -1.0) ] Problem.Le 0.0;
        Problem.add_row problem [ (y_var e c, 1.0); (x_var v c, -1.0) ] Problem.Le 0.0
      done);
  problem

(* Seeded instances covering the corners: λ = 0 (no pair weight at
   all), pairs whose τ is zero on every item, k = 1, k = m, and users
   without friends. *)
let corner_instance seed =
  let rng = Rng.create (7_000 + seed) in
  let n = 3 + (seed mod 7) and m = 2 + (seed mod 5) in
  let k =
    match seed mod 4 with 0 -> 1 | 1 -> m | _ -> 1 + Rng.int rng m
  in
  let lambda = if seed mod 5 = 0 then 0.0 else 0.1 +. Rng.float rng 0.9 in
  (* The last [isolated] users get no edges. *)
  let isolated = seed mod 3 in
  let linked = max 1 (n - isolated) in
  let edges = ref [] in
  for u = 0 to linked - 1 do
    for v = 0 to linked - 1 do
      if u <> v && Rng.float rng 1.0 < 0.45 then edges := (u, v) :: !edges
    done
  done;
  let graph = Graph.of_edges ~n !edges in
  let pref = Array.init n (fun _ -> Array.init m (fun _ -> Rng.float rng 1.0)) in
  let tau_rows = Hashtbl.create 16 in
  Graph.iteri_edges graph (fun _ u v ->
      let zero = Rng.float rng 1.0 < 0.3 in
      Hashtbl.replace tau_rows (u, v)
        (Array.init m (fun _ -> if zero then 0.0 else Rng.float rng 0.6)));
  let tau u v c =
    match Hashtbl.find_opt tau_rows (u, v) with Some r -> r.(c) | None -> 0.0
  in
  Instance.create ~graph ~m ~k ~lambda ~pref ~tau

let optimal what = function
  | Revised.Optimal s -> s
  | Revised.Infeasible | Revised.Unbounded | Revised.Timeout _ ->
      Alcotest.failf "%s: not optimal" what

let test_one_row_equals_two_row () =
  for seed = 0 to 49 do
    let inst = corner_instance seed in
    let what = Printf.sprintf "seed %d" seed in
    let relax = Relaxation.solve ~backend:Relaxation.Exact_simplex inst in
    let oracle = optimal what (Revised.solve (simp_lp_two_row inst)) in
    if Float.abs (relax.Relaxation.scaled_objective -. oracle.Revised.objective) > 1e-7
    then
      Alcotest.failf "%s: one-row optimum %.12f, two-row %.12f" what
        relax.Relaxation.scaled_objective oracle.Revised.objective;
    let k = float_of_int (Instance.k inst) in
    Array.iteri
      (fun u row ->
        let sum = Array.fold_left ( +. ) 0.0 row in
        if Float.abs (sum -. k) > 1e-7 then
          Alcotest.failf "%s: xbar row %d sums to %.9f, not k" what u sum)
      relax.Relaxation.xbar
  done

(* The point a basis encodes: nonbasic columns at the bound their
   status names, basic columns solved from B x_B = b - N x_N by dense
   elimination with partial pivoting. Fails on a singular basis. *)
let basis_point what problem entries =
  let csc = Problem.csc problem in
  let nv = Problem.num_vars problem and rows = Problem.num_rows problem in
  let value = Array.make (nv + rows) 0.0 in
  Array.iteri
    (fun j s ->
      if s = 2 then
        value.(j) <-
          (if j < nv then Option.get (Problem.upper_bound problem j) else 0.0))
    entries;
  let rhs = Array.copy csc.Problem.row_rhs in
  for j = 0 to nv - 1 do
    if entries.(j) <> 0 && value.(j) <> 0.0 then
      for p = csc.Problem.col_ptr.(j) to csc.Problem.col_ptr.(j + 1) - 1 do
        let r = csc.Problem.row_ind.(p) in
        rhs.(r) <- rhs.(r) -. (csc.Problem.values.(p) *. value.(j))
      done
  done;
  let basic = List.filter (fun j -> entries.(j) = 0) (List.init (nv + rows) Fun.id) in
  let basic = Array.of_list basic in
  let b = Array.make_matrix rows rows 0.0 in
  Array.iteri
    (fun col j ->
      if j < nv then
        for p = csc.Problem.col_ptr.(j) to csc.Problem.col_ptr.(j + 1) - 1 do
          b.(csc.Problem.row_ind.(p)).(col) <- csc.Problem.values.(p)
        done
      else b.(j - nv).(col) <- 1.0)
    basic;
  for col = 0 to rows - 1 do
    let piv = ref col in
    for r = col + 1 to rows - 1 do
      if Float.abs b.(r).(col) > Float.abs b.(!piv).(col) then piv := r
    done;
    if Float.abs b.(!piv).(col) < 1e-9 then Alcotest.failf "%s: singular basis" what;
    let t = b.(col) in
    b.(col) <- b.(!piv);
    b.(!piv) <- t;
    let t = rhs.(col) in
    rhs.(col) <- rhs.(!piv);
    rhs.(!piv) <- t;
    for r = 0 to rows - 1 do
      if r <> col && b.(r).(col) <> 0.0 then begin
        let f = b.(r).(col) /. b.(col).(col) in
        for c = col to rows - 1 do
          b.(r).(c) <- b.(r).(c) -. (f *. b.(col).(c))
        done;
        rhs.(r) <- rhs.(r) -. (f *. rhs.(col))
      end
    done
  done;
  Array.iteri (fun col j -> value.(j) <- rhs.(col) /. b.(col).(col)) basic;
  Array.sub value 0 nv

let test_crash_basis_feasible () =
  for seed = 0 to 49 do
    let inst = corner_instance seed in
    let what = Printf.sprintf "seed %d" seed in
    let problem, _ = Lp_build.simp_lp inst in
    let entries = Revised.vbasis_entries (Lp_build.simp_crash_basis inst) in
    let nv = Problem.num_vars problem and rows = Problem.num_rows problem in
    Alcotest.(check int) (what ^ ": one status per column") (nv + rows)
      (Array.length entries);
    let basic = Array.fold_left (fun acc s -> if s = 0 then acc + 1 else acc) 0 entries in
    Alcotest.(check int) (what ^ ": one basic column per row") rows basic;
    let x = basis_point what problem entries in
    Array.iteri
      (fun j v ->
        let up = Option.value ~default:infinity (Problem.upper_bound problem j) in
        if v < Problem.lower_bound problem j -. 1e-9 || v > up +. 1e-9 then
          Alcotest.failf "%s: column %d = %.12f outside its bounds" what j v)
      x;
    Array.iteri
      (fun r { Problem.terms; cmp; rhs } ->
        let act = List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0.0 terms in
        let ok =
          match cmp with
          | Problem.Le -> act <= rhs +. 1e-9
          | Problem.Ge -> act >= rhs -. 1e-9
          | Problem.Eq -> Float.abs (act -. rhs) <= 1e-9
        in
        if not ok then Alcotest.failf "%s: row %d violated (%.12f vs %.12f)" what r act rhs)
      (Problem.rows problem)
  done

(* With λ = 0 every pair weight vanishes, and each user's top-k
   preferences are the optimum: the crash vertex is optimal and its
   basis already prices out, while the all-logical start must pivot. *)
let test_crash_optimal_at_lambda_zero () =
  let inst = Helpers.random_instance ~lambda:0.0 (Rng.create 42) ~n:12 ~m:7 ~k:3 in
  let relax = Relaxation.solve ~backend:Relaxation.Exact_simplex inst in
  (match relax.Relaxation.lp_stats with
  | Some s -> Alcotest.(check int) "crash start: no pivot" 0 s.Relaxation.pivots
  | None -> Alcotest.fail "exact solve must report lp_stats");
  let problem, _ = Lp_build.simp_lp inst in
  let cold = optimal "cold" (Revised.solve problem) in
  if cold.Revised.pivots = 0 then Alcotest.fail "all-logical start should pivot";
  Alcotest.(check (float 1e-9)) "same optimum" cold.Revised.objective
    relax.Relaxation.scaled_objective

let test_bnb_root_basis () =
  for seed = 0 to 5 do
    let inst = Helpers.random_instance (Rng.create (60 + seed)) ~n:6 ~m:4 ~k:2 in
    let what = Printf.sprintf "seed %d" seed in
    Alcotest.(check bool) (what ^ ": exact B&B rung") true
      (Relaxation.integer_engine_of inst = Relaxation.Bnb_simplex);
    let problem, x_var = Lp_build.simp_lp inst in
    let binary = Array.init (6 * 4) (fun i -> x_var (i / 4) (i mod 4)) in
    let plain = Branch_bound.solve problem ~binary in
    let crash =
      Branch_bound.solve ~root_basis:(Lp_build.simp_crash_basis inst) problem ~binary
    in
    let r = Relaxation.solve_integer inst in
    Alcotest.(check bool) (what ^ ": solve_integer on the simplex rung") true
      (r.Relaxation.int_engine = Relaxation.Bnb_simplex);
    Alcotest.(check bool) (what ^ ": proved") true
      (plain.Branch_bound.proved_optimal && crash.Branch_bound.proved_optimal
     && r.Relaxation.proved);
    Alcotest.(check (float 1e-9)) (what ^ ": objective") plain.Branch_bound.objective
      crash.Branch_bound.objective;
    Alcotest.(check (float 1e-9)) (what ^ ": bound") plain.Branch_bound.bound
      crash.Branch_bound.bound;
    Alcotest.(check (float 1e-9)) (what ^ ": int_objective") plain.Branch_bound.objective
      r.Relaxation.int_objective;
    Alcotest.(check (float 1e-9)) (what ^ ": int_bound") plain.Branch_bound.bound
      r.Relaxation.int_bound
  done

let test_lp_simp_shape () =
  for seed = 0 to 49 do
    let inst = corner_instance seed in
    let problem, _ = Lp_build.simp_lp inst in
    let nv = Problem.num_vars problem in
    let csc = Problem.csc problem in
    let vars, rows, nnz = Relaxation.lp_simp_shape inst in
    let what = Printf.sprintf "seed %d" seed in
    Alcotest.(check int) (what ^ ": variables") nv vars;
    Alcotest.(check int) (what ^ ": rows") (Problem.num_rows problem) rows;
    Alcotest.(check int) (what ^ ": nonzeros") csc.Problem.col_ptr.(nv) nnz
  done

let suite =
  [
    Alcotest.test_case "one-row = two-row optimum (50 seeds)" `Quick
      test_one_row_equals_two_row;
    Alcotest.test_case "crash basis: one basic per row, feasible vertex" `Quick
      test_crash_basis_feasible;
    Alcotest.test_case "crash start optimal at lambda = 0" `Quick
      test_crash_optimal_at_lambda_zero;
    Alcotest.test_case "B&B root basis: same objective and bound" `Quick
      test_bnb_root_basis;
    Alcotest.test_case "lp_simp_shape = built program" `Quick test_lp_simp_shape;
  ]

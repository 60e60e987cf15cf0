(** Builders translating an SVGIC instance into the linear / integer
    programs of Section 3.3 and Section 4.4 of the paper. All programs
    are expressed in the scaled units of the λ-scaling enhancement
    (objective [Σ p'(u,c)·x + Σ w_e^c·y] with
    [w_e^c = τ(u,v,c) + τ(v,u,c)]), so a program objective [S]
    corresponds to a total SAVG utility of
    [Instance.objective_scale · S]. *)

type var_maps = {
  x_var : int -> int -> int -> int;  (** [x_var u c s] *)
  y_var : int -> int -> int -> int;  (** [y_var pair_index c s] *)
}

val full_lp : Instance.t -> Svgic_lp.Problem.t * var_maps
(** [LP_SVGIC]: the slot-indexed relaxation (constraints (1)–(6) with
    bounds relaxed). Large — kept for the advanced-LP-transformation
    ablation and as the base of the exact IP. *)

val simp_lp : Instance.t -> Svgic_lp.Problem.t * (int -> int -> int)
(** [LP_SIMP] of Section 4.4: variables [x(u,c)] with
    [Σ_c x(u,c) = k] and the co-display value [min(x(u,c), x(v,c))]
    of every friend pair. Returns the x-variable map. By
    Observation 2, its optimum equals [LP_SVGIC]'s and
    [x*(u,c,s) = x(u,c)/k].

    Layout: the [n·m] variables [x(u,c)] at [u·m + c], then one
    [s(e,c) >= 0] (no upper bound) per pair and item at
    [n·m + e·m + c]. Rows: the [n] user rows [Σ_c x(u,c) = k], then
    one co-display row [x(u,c) - x(v,c) - s(e,c) <= 0] per pair and
    item, [u] being the pair's first endpoint — [n + np·m] rows and
    [n·m + 3·np·m] nonzeros. The paper's [y(e,c)] is
    [x(u,c) - s(e,c)]: the pair weight [w(e,c)] sits in [x(u,c)]'s
    cost and [s(e,c)] costs [-w(e,c)]. At an optimum
    [s = max(0, x(u,c) - x(v,c))], so [y = min(x(u,c), x(v,c))] — the
    same program as the two-row form [y <= x(u,c)], [y <= x(v,c)], with
    half the co-display rows. *)

val simp_crash_basis : Instance.t -> Svgic_lp.Revised_simplex.vbasis
(** A primal-feasible starting basis for {!simp_lp}, so a cold solve
    skips phase 1. Each user's top-k items by
    [scaled_pref + ½·Σ incident pair weight] sit at their upper bound
    (the weakest of them basic in its user row); every other [x] sits
    at 0. Per pair and item, [s(e,c)] is basic when
    [x(u,c) > x(v,c)] and the row's logical is basic otherwise. The
    basis is triangular with a unit diagonal, so it is nonsingular,
    and it has exactly one basic column per row. When [λ = 0] its
    vertex is optimal and the solve takes no pivot. *)

val ip : Instance.t -> Svgic_lp.Problem.t * int array * var_maps
(** The exact integer program: [full_lp] plus integrality on the
    x-variables (the y-variables may stay continuous: with integral x
    they are integral at any optimum). Returns the binary variable
    list for branch-and-bound. *)

val fw_problem : Instance.t -> Svgic_lp.Pairwise_fw.problem
(** The same compact relaxation in the form consumed by the
    Frank–Wolfe solver. *)

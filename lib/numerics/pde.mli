(** One-dimensional reaction--diffusion initial-boundary-value problems
    with no-flux (Neumann) boundaries:

    {v
      u_t = (d(x) u_x)_x + f(x, t, u),   xl <= x <= xr,  t >= t0
      u_x(xl, t) = u_x(xr, t) = 0
      u(x, t0)  = initial x
    v}

    This is the solver behind the paper's diffusive logistic model
    (Equation 4), where [f(x,t,u) = r(t) u (1 - u/K)] and [d] is
    constant.  The formulation is kept slightly more general (variable
    [d(x)], arbitrary [f]) to support the paper's stated future work.

    Three schemes are provided:
    - {b FTCS}: explicit forward-time centred-space; sub-steps
      automatically to respect the CFL limit [dt <= dx^2 / (2 max d)].
    - {b IMEX theta}: diffusion handled implicitly by a theta-scheme
      (Crank--Nicolson at [theta = 0.5]) via a tridiagonal solve;
      reaction explicit.
    - {b Strang}: symmetric operator splitting — half reaction step,
      full Crank--Nicolson diffusion step, half reaction step — where
      the reaction sub-step is the exact flow derived from the
      reaction shape ([Logistic] or [Linear]).

    Every solve runs the panel stepper ({!solve} is a panel of one
    story); {!solve_reference} keeps the original per-step-allocating
    stepper as the oracle the panel stepper must match bit for bit. *)

(** A growth rate [r(t) = a e^{-b (t - 1)} + c], as data: the one form
    the paper's DL equation (Figs 6/7) and its linear variant take, with
    time measured from the initial observation hour [t = 1].  A
    constant rate is [{a = 0.; b = 0.; c}]. *)
type rate = { a : float; b : float; c : float }

val rate_eval : rate -> float -> float
(** [rate_eval r t] is exactly [(r.a *. exp (-.r.b *. (t -. 1.))) +. r.c],
    the expression [Growth.eval] uses: every solve path evaluates the
    rate through it. *)

(** The reaction term [f(x, t, u)], specialised by shape.  [Logistic]
    and [Linear] name the paper's two models so the solver's hot loops
    can dispatch once and run unboxed float arithmetic per cell;
    [Custom] keeps the fully general closure (with its per-call float
    boxing).  Both steppers evaluate the named shapes as exactly
    [rate_eval r t *. u *. (1. -. (u /. k))] and [rate_eval r t *. u] —
    building a [Custom] closure with the same body produces the same
    bits, just slower.  Because the rate is data, the panel stepper
    evaluates Strang's Simpson integrals of it inline, allocating
    nothing. *)
type reaction =
  | Logistic of { r : rate; k : float }
      (** [f = r(t) u (1 - u/K)] — the paper's Eq. 4. *)
  | Linear of { r : rate }
      (** [f = r(t) u] — the authors' follow-up linear model. *)
  | Custom of (x:float -> t:float -> u:float -> float)

val reaction_eval : reaction -> x:float -> t:float -> u:float -> float
(** The single evaluation semantics shared by every solve path. *)

type problem = {
  xl : float;
  xr : float;
  nx : int;  (** number of grid points, at least 3 *)
  diffusion : float -> float;  (** [d(x)], non-negative *)
  reaction : reaction;
  initial : float -> float;
  t0 : float;
}

type scheme =
  | Ftcs
  | Imex of float  (** theta in [\[0.5, 1\]]; 0.5 = Crank--Nicolson *)
  | Strang
      (** Strang splitting with the {e exact} reaction flow derived
          from the reaction shape ([Logistic] -> closed-form logistic
          flow, [Linear] -> [u e^{∫r}], the integral of [r] by
          Simpson's rule).  [Custom] reactions are rejected
          ([Invalid_argument]): no flow derives from a closure. *)

type solution = {
  xs : float array;  (** grid, length [nx] *)
  ts : float array;  (** snapshot times, [t0] first *)
  values : float array array;  (** [values.(it).(ix)] *)
}

val grid : problem -> float array

val cfl_limit : problem -> float
(** Largest stable explicit time step for the diffusion term. *)

val solve :
  ?scheme:scheme -> ?dt:float -> problem -> times:float array -> solution
(** [solve problem ~times] marches from [t0] and records a snapshot at
    [t0] and at each requested (strictly increasing, [>= t0]) time.
    Default scheme [Imex 0.5], default [dt = 1e-3] time units (FTCS
    additionally sub-steps to stay within the CFL limit).

    This is [(solve_panel [|problem|] ~times).(0)] on fresh buffers
    (never shared across calls, so concurrent solves are safe),
    counted under the [pde.solves] / [pde.steps] / [pde.solve_ns]
    metrics rather than the panel ones. *)

val solve_reference :
  ?scheme:scheme -> ?dt:float -> problem -> times:float array -> solution
(** The oracle: same contract and defaults as {!solve}, run by the
    original stepper that allocates fresh arrays and operators every
    step.  {!solve} and every {!solve_panel} column are
    {e bit-identical} to it — same floating-point operations in the
    same order — enforced per cell by test_pde_perf and the CI bench
    gate.  For tests and benchmarks; records no metrics. *)

(** {2 Fused panel solves}

    A panel steps S problems sharing (domain, grid, [t0], [dt],
    scheme) through the time loop in lockstep: per-story state and
    operators live in structure-of-arrays {!Tridiag.panel}s, and an
    implicit step is two sweeps per story — a forward pass that maps
    the look-ahead cell (Strang's first half flow), forms the
    Crank--Nicolson row, adds the RK2 reaction (IMEX) and eliminates,
    then a backward pass that substitutes and applies Strang's second
    half flow.  The x-independent per-step scalars (r(t), Simpson
    [∫r], their exponentials) are hoisted out of the cell loops, and
    [Logistic]/[Linear] reactions run unboxed.  A Strang step's two
    Simpson integrals are one inlined kernel over the {!rate} record:
    r at the shared midpoint is evaluated once, r at the step's start
    is the previous step's end value whenever the nodes coincide, and
    nothing is allocated.  Fusing passes and batching stories reorder
    loops but never change any story's floating-point operations. *)

type panel_workspace
(** Reusable panel buffer block (state, operators, factorization,
    per-story scratch), reallocated only when the [(nx, stories)]
    shape changes.  Keep one per fit restart / pool worker: a
    workspace must not be used from two domains concurrently.
    Buffer reuse is counted in the [pde.panel_reuses] /
    [pde.panel_rebuilds] metrics (visible on [/metrics]). *)

val panel_workspace : unit -> panel_workspace

val panel_workspace_stats : panel_workspace -> int * int
(** [(reuses, rebuilds)] over the workspace's lifetime. *)

val solve_panel :
  ?scheme:scheme ->
  ?dt:float ->
  ?workspace:panel_workspace ->
  problem array ->
  times:float array ->
  solution array
(** [solve_panel problems ~times] solves every problem over the shared
    snapshot [times] (semantics per problem exactly as {!solve}).  The
    problems must share [(xl, xr, nx, t0)]; diffusion, reaction and
    initial profile are per story.  An FTCS panel additionally needs
    every story to get the same CFL-clipped macro step.  Counted under
    the [pde.panel_*] metrics.  An empty panel returns [[||]].
    @raise Invalid_argument on a shape or FTCS step mismatch, or a
    [Custom] reaction under [Strang]. *)

val eval : solution -> x:float -> t:float -> float
(** Bilinear interpolation in the snapshot table (clamped at the
    borders).
    @raise Invalid_argument if [x] or [t] is NaN (a NaN would silently
    clamp to garbage). *)

val evaluator : solution -> x:float -> t:float -> float
(** Like {!eval} with the table bounds and lengths hoisted out: build
    the closure once, then each call is allocation-free.  Intended for
    prediction loops that query one solution many times. *)

val snapshot : solution -> t:float -> float array
(** Solution profile at the recorded time nearest to [t]. *)

val mass : solution -> it:int -> float
(** Trapezoid integral of the profile at snapshot index [it]; constant
    in time for pure diffusion with Neumann boundaries (used by
    tests). *)

(* The growth rate [r(t) = a e^{-b (t - 1)} + c], held as data: the
   form the paper's DL equation (Figs 6/7) and its linear variant both
   use.  [rate_eval] is the single expression every path evaluates. *)
type rate = { a : float; b : float; c : float }

let[@inline] rate_eval r t = (r.a *. exp (-.r.b *. (t -. 1.))) +. r.c

(* The reaction term, specialised by shape.  [Logistic]/[Linear] name
   the paper's two models directly so hot loops can dispatch once per
   solve and run unboxed float arithmetic per cell; [Custom] keeps the
   fully general closure (floats box at every call).  [reaction_eval]
   is the single semantics: the reference stepper and the panel
   stepper both compute exactly its floating-point expressions. *)
type reaction =
  | Logistic of { r : rate; k : float }
  | Linear of { r : rate }
  | Custom of (x:float -> t:float -> u:float -> float)

let reaction_eval re ~x ~t ~u =
  match re with
  | Logistic { r; k } -> rate_eval r t *. u *. (1. -. (u /. k))
  | Linear { r } -> rate_eval r t *. u
  | Custom f -> f ~x ~t ~u

type problem = {
  xl : float;
  xr : float;
  nx : int;
  diffusion : float -> float;
  reaction : reaction;
  initial : float -> float;
  t0 : float;
}

type scheme = Ftcs | Imex of float | Strang

type solution = {
  xs : float array;
  ts : float array;
  values : float array array;
}

let grid p =
  assert (p.nx >= 3 && p.xr > p.xl);
  Vec.linspace p.xl p.xr p.nx

let dx p = (p.xr -. p.xl) /. float_of_int (p.nx - 1)

(* Face diffusivities d_{i+1/2}, arithmetic mean of node values. *)
let face_diffusion p xs =
  Array.init (p.nx - 1) (fun i ->
      (p.diffusion xs.(i) +. p.diffusion xs.(i + 1)) /. 2.)

(* CFL bound from an already-built grid, so a solve (which owns one)
   never rebuilds it just to size the FTCS step. *)
let cfl_of p xs =
  let dmax =
    Array.fold_left (fun acc x -> Float.max acc (p.diffusion x)) 0. xs
  in
  let h = dx p in
  if dmax <= 0. then infinity else h *. h /. (2. *. dmax)

let cfl_limit p = cfl_of p (grid p)

(* The macro step a solve marches with: FTCS sub-steps below the CFL
   limit, the implicit schemes take [dt] as given. *)
let macro_step p xs scheme dt =
  match scheme with
  | Ftcs ->
    let cfl = cfl_of p xs in
    if Float.is_finite cfl then Float.min dt (0.9 *. cfl) else dt
  | Imex _ | Strang -> dt

(* Finite-volume discretisation of (d u_x)_x with zero-flux faces:
   (L u)_i = (F_{i+1/2} - F_{i-1/2}) / (h c_i),  F = d (u_{i+1} - u_i)/h,
   where boundary cells have half volume (c = 1/2).  Equivalent to the
   second-order mirrored-ghost stencil at the boundaries, and it makes
   the trapezoid integral of u an exact invariant of pure diffusion. *)
let cell_weight n i = if i = 0 || i = n - 1 then 0.5 else 1.

let apply_operator p df u =
  let n = p.nx in
  let h2 = dx p ** 2. in
  Array.init n (fun i ->
      let flux_right = if i = n - 1 then 0. else df.(i) *. (u.(i + 1) -. u.(i)) in
      let flux_left = if i = 0 then 0. else df.(i - 1) *. (u.(i) -. u.(i - 1)) in
      (flux_right -. flux_left) /. (h2 *. cell_weight n i))

(* Tridiagonal representation of L (same stencil as [apply_operator]). *)
let operator_tridiag p df =
  let n = p.nx in
  let h2 = dx p ** 2. in
  let sub = Array.make (n - 1) 0.
  and diag = Array.make n 0.
  and sup = Array.make (n - 1) 0. in
  for i = 0 to n - 1 do
    let h2i = h2 *. cell_weight n i in
    let dr = if i = n - 1 then 0. else df.(i) /. h2i in
    let dl = if i = 0 then 0. else df.(i - 1) /. h2i in
    diag.(i) <- -.(dr +. dl);
    if i < n - 1 then sup.(i) <- dr;
    if i > 0 then sub.(i - 1) <- dl
  done;
  Tridiag.make ~sub ~diag ~sup

(* (I + c L) as a tridiagonal matrix. *)
let shifted c l =
  let n = Array.length l.Tridiag.diag in
  Tridiag.make
    ~sub:(Array.map (fun v -> c *. v) l.Tridiag.sub)
    ~diag:(Array.init n (fun i -> 1. +. (c *. l.Tridiag.diag.(i))))
    ~sup:(Array.map (fun v -> c *. v) l.Tridiag.sup)

(* Exact flow of [du/dt = f(t, u)] over [t, t+dt] for the reference
   Strang stepper, derived from the reaction shape: the logistic closed
   form, or [u e^{int r}] for the linear model, with the integral of r
   by Simpson's rule.  The integral is x-independent, so a one-slot
   memo turns the per-cell evaluation into a per-(t, dt) one (same
   value, bit for bit).  Stateful: derive one flow per solve. *)
let exact_flow = function
  | Logistic { r; k } ->
    let integral = Quadrature.simpson_memo (rate_eval r) ~n:8 in
    let current = ref 0. in
    let r_integral _ = !current in
    fun ~t ~dt ~u ->
      if u = 0. then 0.
      else begin
        current := integral ~a:t ~b:(t +. dt);
        Ode.logistic_varying_r ~r_integral ~k ~n0:u dt
      end
  | Linear { r } ->
    let integral = Quadrature.simpson_memo (rate_eval r) ~n:8 in
    fun ~t ~dt ~u ->
      if u = 0. then 0. else u *. exp (integral ~a:t ~b:(t +. dt))
  | Custom _ -> assert false (* rejected by [check_args] *)

(* Second-order (Heun) increment of the reaction term over [t, t+dt]. *)
let reaction_rk2 p xs t dt u =
  Array.mapi
    (fun i ui ->
      let x = xs.(i) in
      let k1 = reaction_eval p.reaction ~x ~t ~u:ui in
      let k2 = reaction_eval p.reaction ~x ~t:(t +. dt) ~u:(ui +. (dt *. k1)) in
      dt *. (k1 +. k2) /. 2.)
    u

(* One macro time step of size dt, dispatching on the scheme.  For
   FTCS the caller has already split dt below the CFL limit; [flow] is
   the exact reaction flow, used by Strang only.

   This is the REFERENCE STEPPER: it allocates fresh arrays and
   operators every step, exactly as the original solver did.  The
   panel stepper below must stay bit-identical to it — same
   floating-point operations in the same order — which
   [test/test_pde_perf.ml] and the CI bench gate enforce per cell.  Do
   not "optimise" this function; it is the oracle. *)
let step p xs df l scheme flow t dt u =
  match scheme with
  | Ftcs ->
    let lu = apply_operator p df u in
    let dr = reaction_rk2 p xs t dt u in
    Array.mapi (fun i ui -> ui +. (dt *. lu.(i)) +. dr.(i)) u
  | Imex theta ->
    (* (I - theta dt L) u' = (I + (1-theta) dt L) u + RK2 reaction *)
    let explicit = Tridiag.mv (shifted ((1. -. theta) *. dt) l) u in
    let dr = reaction_rk2 p xs t dt u in
    let rhs = Array.mapi (fun i v -> v +. dr.(i)) explicit in
    Tridiag.solve (shifted (-.(theta *. dt)) l) rhs
  | Strang ->
    let half = dt /. 2. in
    let u1 = Array.map (fun ui -> flow ~t ~dt:half ~u:ui) u in
    (* Crank--Nicolson diffusion over the full step. *)
    let explicit = Tridiag.mv (shifted (dt /. 2.) l) u1 in
    let u2 = Tridiag.solve (shifted (-.(dt /. 2.)) l) explicit in
    Array.map (fun ui -> flow ~t:(t +. half) ~dt:half ~u:ui) u2

let check_args fn scheme dt problems =
  assert (dt > 0.);
  match scheme with
  | Imex theta ->
    if theta < 0.5 || theta > 1. then
      invalid_arg (fn ^ ": theta must be in [0.5, 1]")
  | Strang ->
    let custom p = match p.reaction with Custom _ -> true | _ -> false in
    if Array.exists custom problems then
      invalid_arg
        (fn ^ ": Strang needs a Logistic or Linear reaction (no exact \
               flow derives from a Custom closure)")
  | Ftcs -> ()

(* March from [t0] through the snapshot [times]: macro steps of
   [dt_macro], shortened to land exactly on each target, then
   [record j] for the j-th target (1-based; index 0 is [t0]).
   Returns the number of steps taken. *)
let march fn ~t0 ~dt_macro ~times ~advance ~record =
  let t = ref t0 and steps = ref 0 in
  Array.iteri
    (fun j target ->
      if target < !t -. 1e-12 then
        invalid_arg (fn ^ ": times must be increasing and >= t0");
      while target -. !t > 1e-12 do
        let step_dt = Float.min dt_macro (target -. !t) in
        advance !t step_dt;
        incr steps;
        t := !t +. step_dt
      done;
      t := target;
      record (j + 1))
    times;
  !steps

let solve_reference ?(scheme = Imex 0.5) ?(dt = 1e-3) p ~times =
  check_args "Pde.solve_reference" scheme dt [| p |];
  let xs = grid p in
  let df = face_diffusion p xs in
  let l = operator_tridiag p df in
  let flow =
    match scheme with
    | Strang -> exact_flow p.reaction
    | Ftcs | Imex _ -> fun ~t:_ ~dt:_ ~u -> u (* never called *)
  in
  let u = ref (Array.map p.initial xs) in
  let values = Array.make (Array.length times + 1) [||] in
  let record j = values.(j) <- Array.copy !u in
  record 0;
  ignore
    (march "Pde.solve_reference" ~t0:p.t0
       ~dt_macro:(macro_step p xs scheme dt) ~times
       ~advance:(fun t dt -> u := step p xs df l scheme flow t dt !u)
       ~record);
  { xs; ts = Array.append [| p.t0 |] times; values }

(* --- panel stepper ------------------------------------------------ *)

(* A panel steps S problems sharing (domain, grid, t0, dt, scheme)
   through the time loop in lockstep on structure-of-arrays
   [Tridiag.panel]s.  An implicit step is two sweeps per story: a
   forward pass maps each look-ahead cell (Strang's first half flow),
   forms the Crank--Nicolson explicit row, adds the RK2 reaction
   (IMEX) and runs Thomas elimination, all with the three-cell stencil
   in registers; a backward pass substitutes and applies Strang's
   second half flow.  Stories are the outer loop, so each recurrence
   is a scalar chain.  The x-independent per-step scalars (r(t),
   Simpson integrals of r, their exponentials) are hoisted once per
   story, and the [Logistic]/[Linear] reactions, whose rate is a
   [rate] record rather than a closure, run as unboxed float
   arithmetic.  Column [s] of the result is bit-identical to
   [solve_reference] on story [s] alone: stories never mix, the
   hoisted scalars are exactly the values the reference computes per
   cell (or memoizes, for the Strang Simpson integral), and every cell
   runs the reference's floating-point operations in its order.
   [solve] is a width-1 panel. *)

(* Reaction tags for the per-cell dispatch (int match, no closure). *)
let tag_logistic = 0
let tag_linear = 1
let tag_custom = 2

(* All the panel buffers for one (nx, stories) shape.  Everything is
   rebuilt per solve except the allocations themselves; [pb_ops_dt]
   tracks which step size the shifted operators + factorization
   currently hold (NaN = none), so ragged final partial steps refill
   the same buffers and the macro ops are restored on the next full
   step. *)
type panel_bufs = {
  pb_nx : int;
  pb_ns : int;
  mutable pb_u : Tridiag.panel;
  mutable pb_next : Tridiag.panel;
  (* face diffusivities (FTCS flux form) and the FV operator L *)
  pb_df : Tridiag.panel;
  pb_l_sub : Tridiag.panel;
  pb_l_diag : Tridiag.panel;
  pb_l_sup : Tridiag.panel;
  (* shifted explicit (I + cE L) and implicit (I + cI L) operators *)
  pb_e_sub : Tridiag.panel;
  pb_e_diag : Tridiag.panel;
  pb_e_sup : Tridiag.panel;
  pb_i_sub : Tridiag.panel;
  pb_i_diag : Tridiag.panel;
  pb_i_sup : Tridiag.panel;
  (* Thomas factorization of the implicit operator *)
  pb_f_c : Tridiag.panel;
  pb_f_m : Tridiag.panel;
  mutable pb_ops_dt : float;
  (* per-story hoisted scalars: r(t), r(t+dt), the two Strang half
     flow factors, and the last Strang step's end node and r there
     (NaN = none yet this solve) *)
  pb_rt : float array;
  pb_rt2 : float array;
  pb_flow : float array;
  pb_flow2 : float array;
  pb_end_t : float array;
  pb_end_r : float array;
  pb_k : float array;
  pb_tag : int array;
}

let make_panel_bufs ~nx ~ns =
  let p () = Tridiag.panel_create ~n:nx ~stories:ns in
  {
    pb_nx = nx;
    pb_ns = ns;
    pb_u = p ();
    pb_next = p ();
    pb_df = p ();
    pb_l_sub = p ();
    pb_l_diag = p ();
    pb_l_sup = p ();
    pb_e_sub = p ();
    pb_e_diag = p ();
    pb_e_sup = p ();
    pb_i_sub = p ();
    pb_i_diag = p ();
    pb_i_sup = p ();
    pb_f_c = p ();
    pb_f_m = p ();
    pb_ops_dt = Float.nan;
    pb_rt = Array.make ns 0.;
    pb_rt2 = Array.make ns 0.;
    pb_flow = Array.make ns 0.;
    pb_flow2 = Array.make ns 0.;
    pb_end_t = Array.make ns Float.nan;
    pb_end_r = Array.make ns 0.;
    pb_k = Array.make ns 0.;
    pb_tag = Array.make ns tag_custom;
  }

(* A reusable panel workspace: keeps the buffer block alive across
   solves (one per fit restart / pool worker — at any instant a single
   domain owns it; do not share concurrently).  Shape changes
   reallocate. *)
type panel_workspace = {
  mutable pw_bufs : panel_bufs option;
  mutable pw_reuses : int;
  mutable pw_rebuilds : int;
}

let panel_workspace () = { pw_bufs = None; pw_reuses = 0; pw_rebuilds = 0 }

let panel_workspace_stats ws = (ws.pw_reuses, ws.pw_rebuilds)

let m_solves = Obs.Metrics.counter "pde.solves"
let m_steps = Obs.Metrics.counter "pde.steps"
let m_solve_ns = Obs.Metrics.histogram "pde.solve_ns"
let m_panel_solves = Obs.Metrics.counter "pde.panel_solves"
let m_panel_stories = Obs.Metrics.counter "pde.panel_stories"
let m_panel_steps = Obs.Metrics.counter "pde.panel_steps"
let m_panel_reuses = Obs.Metrics.counter "pde.panel_reuses"
let m_panel_rebuilds = Obs.Metrics.counter "pde.panel_rebuilds"
let m_panel_solve_ns = Obs.Metrics.histogram "pde.panel_solve_ns"

let ensure_panel_bufs ws ~obs_on ~nx ~ns =
  match ws.pw_bufs with
  | Some b when b.pb_nx = nx && b.pb_ns = ns ->
    ws.pw_reuses <- ws.pw_reuses + 1;
    if obs_on then Obs.Metrics.incr m_panel_reuses;
    b.pb_ops_dt <- Float.nan;
    b
  | _ ->
    let b = make_panel_bufs ~nx ~ns in
    ws.pw_bufs <- Some b;
    ws.pw_rebuilds <- ws.pw_rebuilds + 1;
    if obs_on then Obs.Metrics.incr m_panel_rebuilds;
    b

(* Fill the shifted operator panels and factorize the implicit one for
   step size [dt].  Coefficients replicate [shifted]: the per-element
   expressions are identical, so the factorization matches the one
   [Tridiag.solve] computes bit for bit. *)
let panel_ops b scheme dt =
  if not (dt = b.pb_ops_dt) then begin
    let ce, ci =
      match scheme with
      | Imex theta -> ((1. -. theta) *. dt, -.(theta *. dt))
      | Strang -> (dt /. 2., -.(dt /. 2.))
      | Ftcs -> assert false (* no implicit operator *)
    in
    let nx = b.pb_nx and ns = b.pb_ns in
    let open Bigarray.Array2 in
    for i = 0 to nx - 1 do
      for s = 0 to ns - 1 do
        let ld = unsafe_get b.pb_l_diag i s in
        unsafe_set b.pb_e_diag i s (1. +. (ce *. ld));
        unsafe_set b.pb_i_diag i s (1. +. (ci *. ld))
      done
    done;
    for i = 0 to nx - 2 do
      for s = 0 to ns - 1 do
        let lsub = unsafe_get b.pb_l_sub i s in
        let lsup = unsafe_get b.pb_l_sup i s in
        unsafe_set b.pb_e_sub i s (ce *. lsub);
        unsafe_set b.pb_e_sup i s (ce *. lsup);
        unsafe_set b.pb_i_sub i s (ci *. lsub);
        unsafe_set b.pb_i_sup i s (ci *. lsup)
      done
    done;
    Tridiag.factorize_batch ~sub:b.pb_i_sub ~diag:b.pb_i_diag ~sup:b.pb_i_sup
      ~c:b.pb_f_c ~m:b.pb_f_m;
    b.pb_ops_dt <- dt
  end

(* r(t) and r(t+dt) per story, for the RK2 reaction increment (identical
   floats to the reference's per-cell calls: r is deterministic in t). *)
let hoist_rates b problems t dt =
  for s = 0 to b.pb_ns - 1 do
    match problems.(s).reaction with
    | Logistic { r; k } ->
      b.pb_rt.(s) <- rate_eval r t;
      b.pb_rt2.(s) <- rate_eval r (t +. dt);
      b.pb_k.(s) <- k
    | Linear { r } ->
      b.pb_rt.(s) <- rate_eval r t;
      b.pb_rt2.(s) <- rate_eval r (t +. dt)
    | Custom _ -> ()
  done

(* The reference's [reaction_rk2] cell for story [s], with the named
   shapes unboxed (same association as [reaction_eval]).  Inlined so
   the float result never boxes. *)
let[@inline] rk2_increment b problems s ~x ~t ~dt ui =
  let tag = b.pb_tag.(s) in
  if tag = tag_logistic then begin
    let k = b.pb_k.(s) in
    let k1 = b.pb_rt.(s) *. ui *. (1. -. (ui /. k)) in
    let u2 = ui +. (dt *. k1) in
    let k2 = b.pb_rt2.(s) *. u2 *. (1. -. (u2 /. k)) in
    dt *. (k1 +. k2) /. 2.
  end
  else if tag = tag_linear then begin
    let k1 = b.pb_rt.(s) *. ui in
    let k2 = b.pb_rt2.(s) *. (ui +. (dt *. k1)) in
    dt *. (k1 +. k2) /. 2.
  end
  else begin
    let f =
      match problems.(s).reaction with
      | Custom f -> f
      | Logistic _ | Linear _ -> assert false
    in
    let k1 = f ~x ~t ~u:ui in
    let k2 = f ~x ~t:(t +. dt) ~u:(ui +. (dt *. k1)) in
    dt *. (k1 +. k2) /. 2.
  end

(* [Quadrature.simpson (rate_eval r) ~a:lo ~b:(lo +. 8h) ~n:8] with
   the end values [flo] and [fhi] given: the seven interior nodes
   unrolled in its summation order ([lo +. (h *. 3.)] is its
   [lo +. (h *. float_of_int 3)] exactly).  Loop-free, so it inlines
   and no float boxes. *)
let[@inline] simpson8 r lo h flo fhi =
  let acc = flo +. fhi in
  let acc = acc +. (4. *. rate_eval r (lo +. (h *. 1.))) in
  let acc = acc +. (2. *. rate_eval r (lo +. (h *. 2.))) in
  let acc = acc +. (4. *. rate_eval r (lo +. (h *. 3.))) in
  let acc = acc +. (2. *. rate_eval r (lo +. (h *. 4.))) in
  let acc = acc +. (4. *. rate_eval r (lo +. (h *. 5.))) in
  let acc = acc +. (2. *. rate_eval r (lo +. (h *. 6.))) in
  let acc = acc +. (4. *. rate_eval r (lo +. (h *. 7.))) in
  acc *. h /. 3.

(* Story [s]'s two Strang half-flow factors exp(±∫r) for the step
   [t, t + dt], into [pb_flow]/[pb_flow2]: x-independent, so computed
   once per story — exactly the values the reference's one-slot
   Simpson memo hands every cell.  The integrals run over [t, m] and
   [m, m + dt/2] with [m = t + dt/2], bit for bit the reference's
   limits, so r at [m] serves both; r at [t] is the previous step's
   end value whenever that end node equals [t] (a float [=]: a NaN
   slot never matches).  [@inline] and loop-free: without flambda a
   call that is not inlined boxes its float arguments. *)
let[@inline] half_flows b s r ~logistic t dt =
  let half = dt /. 2. in
  let m = t +. half in
  let e = m +. half in
  let rt = if t = b.pb_end_t.(s) then b.pb_end_r.(s) else rate_eval r t in
  let rm = rate_eval r m and re = rate_eval r e in
  b.pb_end_t.(s) <- e;
  b.pb_end_r.(s) <- re;
  let i1 = simpson8 r t ((m -. t) /. 8.) rt rm in
  let i2 = simpson8 r m ((e -. m) /. 8.) rm re in
  if logistic then begin
    b.pb_flow.(s) <- exp (-.i1);
    b.pb_flow2.(s) <- exp (-.i2)
  end
  else begin
    b.pb_flow.(s) <- exp i1;
    b.pb_flow2.(s) <- exp i2
  end

let hoist_flows b problems t dt =
  for s = 0 to b.pb_ns - 1 do
    match problems.(s).reaction with
    | Logistic { r; k } ->
      b.pb_k.(s) <- k;
      half_flows b s r ~logistic:true t dt
    | Linear { r } -> half_flows b s r ~logistic:false t dt
    | Custom _ -> assert false (* rejected by [check_args] *)
  done

(* Half reaction step of one cell with a hoisted flow factor:
   Ode.logistic_varying_r's closed form, or [u e^{∫r}]. *)
let[@inline] flow_cell logistic k f u =
  if u = 0. then 0.
  else if logistic then k /. (1. +. (((k /. u) -. 1.) *. f))
  else u *. f

(* Row [i] of the explicit operator times the stencil, in
   [Tridiag.mv]'s order: diag, then sub, then sup. *)
let[@inline] explicit_row b s i n prev cur next =
  let open Bigarray.Array2 in
  let acc = unsafe_get b.pb_e_diag i s *. cur in
  let acc =
    if i > 0 then acc +. (unsafe_get b.pb_e_sub (i - 1) s *. prev) else acc
  in
  if i < n - 1 then acc +. (unsafe_get b.pb_e_sup i s *. next) else acc

(* Thomas forward elimination of row [i] against the previous d', in
   [Tridiag.solve]'s order. *)
let[@inline] eliminate b s i rhs dprev =
  let open Bigarray.Array2 in
  if i = 0 then rhs /. unsafe_get b.pb_f_m 0 s
  else
    (rhs -. (unsafe_get b.pb_i_sub (i - 1) s *. dprev))
    /. unsafe_get b.pb_f_m i s

(* Strang, story [s]: forward sweep of first half flow + CN row +
   elimination (d' into [pb_next]), backward substitution + second
   half flow in place. *)
let strang_sweep b s =
  let open Bigarray.Array2 in
  let n = b.pb_nx and u = b.pb_u and d = b.pb_next in
  let logistic = b.pb_tag.(s) = tag_logistic and k = b.pb_k.(s) in
  let f1 = b.pb_flow.(s) and f2 = b.pb_flow2.(s) in
  let prev = ref 0. and dprev = ref 0. in
  let cur = ref (flow_cell logistic k f1 (unsafe_get u 0 s)) in
  for i = 0 to n - 1 do
    let next =
      if i < n - 1 then flow_cell logistic k f1 (unsafe_get u (i + 1) s) else 0.
    in
    let di = eliminate b s i (explicit_row b s i n !prev !cur next) !dprev in
    unsafe_set d i s di;
    dprev := di;
    prev := !cur;
    cur := next
  done;
  let x = ref !dprev in
  unsafe_set d (n - 1) s (flow_cell logistic k f2 !x);
  for i = n - 2 downto 0 do
    let xi = unsafe_get d i s -. (unsafe_get b.pb_f_c i s *. !x) in
    unsafe_set d i s (flow_cell logistic k f2 xi);
    x := xi
  done

(* IMEX, story [s]: forward sweep of CN row + RK2 reaction increment +
   elimination, then plain backward substitution. *)
let imex_sweep b problems xs s t dt =
  let open Bigarray.Array2 in
  let n = b.pb_nx and u = b.pb_u and d = b.pb_next in
  let prev = ref 0. and cur = ref (unsafe_get u 0 s) and dprev = ref 0. in
  for i = 0 to n - 1 do
    let next = if i < n - 1 then unsafe_get u (i + 1) s else 0. in
    let rhs =
      explicit_row b s i n !prev !cur next
      +. rk2_increment b problems s ~x:xs.(i) ~t ~dt !cur
    in
    let di = eliminate b s i rhs !dprev in
    unsafe_set d i s di;
    dprev := di;
    prev := !cur;
    cur := next
  done;
  for i = n - 2 downto 0 do
    unsafe_set d i s
      (unsafe_get d i s -. (unsafe_get b.pb_f_c i s *. unsafe_get d (i + 1) s))
  done

(* One lockstep macro step of size [dt] for the whole panel, into
   [pb_next], then a buffer swap.  [h2w] is dx^2 times the cell
   weight, per cell. *)
let step_panel b problems xs h2w scheme t dt =
  let nx = b.pb_nx and ns = b.pb_ns in
  let open Bigarray.Array2 in
  (match scheme with
  | Ftcs ->
    (* the reference's [apply_operator] flux form plus RK2 reaction *)
    hoist_rates b problems t dt;
    let u = b.pb_u in
    for i = 0 to nx - 1 do
      let x = xs.(i) and h2wi = h2w.(i) in
      for s = 0 to ns - 1 do
        let ui = unsafe_get u i s in
        let flux_right =
          if i = nx - 1 then 0.
          else unsafe_get b.pb_df i s *. (unsafe_get u (i + 1) s -. ui)
        in
        let flux_left =
          if i = 0 then 0.
          else unsafe_get b.pb_df (i - 1) s *. (ui -. unsafe_get u (i - 1) s)
        in
        let lu = (flux_right -. flux_left) /. h2wi in
        unsafe_set b.pb_next i s
          (ui +. (dt *. lu) +. rk2_increment b problems s ~x ~t ~dt ui)
      done
    done
  | Imex _ ->
    panel_ops b scheme dt;
    hoist_rates b problems t dt;
    for s = 0 to ns - 1 do
      imex_sweep b problems xs s t dt
    done
  | Strang ->
    panel_ops b scheme dt;
    hoist_flows b problems t dt;
    for s = 0 to ns - 1 do
      strang_sweep b s
    done);
  let u = b.pb_u in
  b.pb_u <- b.pb_next;
  b.pb_next <- u

(* Solve a validated, non-empty panel on the buffers [bufs ~nx ~ns]
   hands back.  Returns the per-story solutions and the step count. *)
let run_panel fn ~bufs ~scheme ~dt problems ~times =
  let p0 = problems.(0) in
  let nx = p0.nx and ns = Array.length problems in
  Array.iter
    (fun p ->
      if p.xl <> p0.xl || p.xr <> p0.xr || p.nx <> nx || p.t0 <> p0.t0 then
        invalid_arg (fn ^ ": panel problems must share (xl, xr, nx, t0)"))
    problems;
  (* grid once per panel: every story shares (xl, xr, nx) *)
  let xs = grid p0 in
  let dt_macro = macro_step p0 xs scheme dt in
  Array.iter
    (fun p ->
      if macro_step p xs scheme dt <> dt_macro then
        invalid_arg
          (fn ^ ": FTCS panel stories must share the CFL-clipped macro step"))
    problems;
  let b = bufs ~nx ~ns in
  let open Bigarray.Array2 in
  (* per-story face diffusivities, FV operator L and initial state,
     packed into panels (packing copies exact values — nothing is
     recomputed) *)
  Array.iteri
    (fun s p ->
      let df = face_diffusion p xs in
      let l = operator_tridiag p df in
      for i = 0 to nx - 1 do
        unsafe_set b.pb_l_diag i s l.Tridiag.diag.(i);
        unsafe_set b.pb_u i s (p.initial xs.(i))
      done;
      for i = 0 to nx - 2 do
        unsafe_set b.pb_df i s df.(i);
        unsafe_set b.pb_l_sub i s l.Tridiag.sub.(i);
        unsafe_set b.pb_l_sup i s l.Tridiag.sup.(i)
      done;
      b.pb_end_t.(s) <- Float.nan;
      b.pb_tag.(s) <-
        (match p.reaction with
        | Logistic _ -> tag_logistic
        | Linear _ -> tag_linear
        | Custom _ -> tag_custom))
    problems;
  let h2 = dx p0 ** 2. in
  let h2w = Array.init nx (fun i -> h2 *. cell_weight nx i) in
  let nt = Array.length times + 1 in
  let values = Array.init ns (fun _ -> Array.make nt [||]) in
  let record j =
    Array.iteri
      (fun s v -> v.(j) <- Array.init nx (fun i -> unsafe_get b.pb_u i s))
      values
  in
  record 0;
  let steps =
    march fn ~t0:p0.t0 ~dt_macro ~times
      ~advance:(fun t dt -> step_panel b problems xs h2w scheme t dt)
      ~record
  in
  ( Array.map
      (fun values -> { xs; ts = Array.append [| p0.t0 |] times; values })
      values,
    steps )

let solve ?(scheme = Imex 0.5) ?(dt = 1e-3) p ~times =
  check_args "Pde.solve" scheme dt [| p |];
  (* Timing syscalls only happen when observability is on; the numeric
     path is untouched either way. *)
  let obs_on = Obs.enabled () in
  let start = if obs_on then Obs.now_ns () else 0 in
  (* fresh buffers per call: solves run concurrently on server workers
     and pool domains *)
  let sols, steps =
    run_panel "Pde.solve" ~bufs:make_panel_bufs ~scheme ~dt [| p |] ~times
  in
  if obs_on then begin
    Obs.Metrics.incr m_solves;
    Obs.Metrics.incr ~by:steps m_steps;
    Obs.Metrics.observe m_solve_ns (float_of_int (Obs.now_ns () - start))
  end;
  sols.(0)

let solve_panel ?(scheme = Imex 0.5) ?(dt = 1e-3) ?workspace problems ~times =
  check_args "Pde.solve_panel" scheme dt problems;
  let ns = Array.length problems in
  if ns = 0 then [||]
  else begin
    let obs_on = Obs.enabled () in
    let start = if obs_on then Obs.now_ns () else 0 in
    let ws = match workspace with Some w -> w | None -> panel_workspace () in
    let sols, steps =
      run_panel "Pde.solve_panel" ~bufs:(ensure_panel_bufs ws ~obs_on) ~scheme
        ~dt problems ~times
    in
    if obs_on then begin
      Obs.Metrics.incr m_panel_solves;
      Obs.Metrics.incr ~by:ns m_panel_stories;
      Obs.Metrics.incr ~by:steps m_panel_steps;
      Obs.Metrics.observe m_panel_solve_ns
        (float_of_int (Obs.now_ns () - start))
    end;
    sols
  end

(* Top level, not per call: the old per-call [clampf] closure was an
   allocation on the prediction hot path. *)
let clampf lo hi v = Float.max lo (Float.min hi v)

(* values.(it).(ix): bilinear wants values.(ix).(it); transpose view
   via index juggling to avoid materialising.  A NaN query would sail
   through the clamps ([Float.min hi nan] is NaN) and turn the bracket
   search into garbage, so it is rejected up front. *)
let eval_core xs ts values nx nt x_lo x_hi t_lo t_hi ~x ~t =
  if Float.is_nan x || Float.is_nan t then
    invalid_arg
      (Printf.sprintf
         "Pde.eval: NaN input (x = %g, t = %g); clamping a NaN is \
          meaningless" x t);
  let x = clampf x_lo x_hi x in
  let t = clampf t_lo t_hi t in
  let i = if nx = 1 then 0 else Interp.bracket xs x in
  let j = if nt = 1 then 0 else Interp.bracket ts t in
  let i1 = Stdlib.min (i + 1) (nx - 1) and j1 = Stdlib.min (j + 1) (nt - 1) in
  let wx = if i1 = i then 0. else (x -. xs.(i)) /. (xs.(i1) -. xs.(i)) in
  let wt = if j1 = j then 0. else (t -. ts.(j)) /. (ts.(j1) -. ts.(j)) in
  ((1. -. wx) *. (1. -. wt) *. values.(j).(i))
  +. (wx *. (1. -. wt) *. values.(j).(i1))
  +. ((1. -. wx) *. wt *. values.(j1).(i))
  +. (wx *. wt *. values.(j1).(i1))

let evaluator sol =
  let nt = Array.length sol.ts and nx = Array.length sol.xs in
  assert (nt >= 1 && nx >= 1);
  let xs = sol.xs and ts = sol.ts and values = sol.values in
  let x_lo = xs.(0) and x_hi = xs.(nx - 1) in
  let t_lo = ts.(0) and t_hi = ts.(nt - 1) in
  fun ~x ~t -> eval_core xs ts values nx nt x_lo x_hi t_lo t_hi ~x ~t

let eval sol ~x ~t =
  let nt = Array.length sol.ts and nx = Array.length sol.xs in
  assert (nt >= 1 && nx >= 1);
  eval_core sol.xs sol.ts sol.values nx nt sol.xs.(0)
    sol.xs.(nx - 1) sol.ts.(0) sol.ts.(nt - 1) ~x ~t

let snapshot sol ~t =
  let nt = Array.length sol.ts in
  let best = ref 0 in
  for j = 1 to nt - 1 do
    if Float.abs (sol.ts.(j) -. t) < Float.abs (sol.ts.(!best) -. t) then
      best := j
  done;
  Array.copy sol.values.(!best)

let mass sol ~it =
  Quadrature.trapezoid_sampled ~xs:sol.xs ~ys:sol.values.(it)

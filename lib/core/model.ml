open Numerics

type scheme = Ftcs | Crank_nicolson | Strang

type solution = {
  params : Params.t;
  pde : Pde.solution;
}

let problem_of params ~phi ~diffusion ~growth =
  {
    Pde.xl = params.Params.l;
    xr = params.Params.big_l;
    nx = 101;
    diffusion;
    reaction =
      Pde.Custom
        (fun ~x ~t ~u -> growth ~x ~t *. u *. (1. -. (u /. params.Params.k)));
    initial = Initial.to_function phi;
    t0 = 1.;
  }

let check_times times =
  if Array.exists (fun t -> t < 1.) times then
    invalid_arg "Model.solve: observation times start at t = 1"

(* Eq. 4 with the reaction as the solver's [Logistic] shape and the
   rate as data: evaluates as exactly [r(t) u (1 - u/K)], same bits as
   a closure with that body, but unboxed in the solver's cell loops. *)
let dl_problem ~nx params ~phi =
  {
    Pde.xl = params.Params.l;
    xr = params.Params.big_l;
    nx;
    diffusion = (fun _ -> params.Params.d);
    reaction =
      Pde.Logistic { r = Growth.to_rate params.Params.r; k = params.Params.k };
    initial = Initial.to_function phi;
    t0 = 1.;
  }

let pde_scheme = function
  | Ftcs -> Pde.Ftcs
  | Crank_nicolson -> Pde.Imex 0.5
  | Strang -> Pde.Strang

let solve ?(scheme = Strang) ?(nx = 101) ?(dt = 0.01) ?workspace params ~phi
    ~times =
  check_times times;
  let p = dl_problem ~nx params ~phi in
  let scheme = pde_scheme scheme in
  let pde =
    match workspace with
    | None -> Pde.solve ~scheme ~dt p ~times
    | Some ws ->
      (* a width-1 panel on the caller's workspace: the buffers survive
         across calls (one block per fit restart instead of per
         objective evaluation) *)
      (Pde.solve_panel ~scheme ~dt ~workspace:ws [| p |] ~times).(0)
  in
  { params; pde }

let solve_panel ?(scheme = Strang) ?(nx = 101) ?(dt = 0.01) ?workspace stories
    ~times =
  check_times times;
  if Array.length stories = 0 then [||]
  else begin
    let p0, _ = stories.(0) in
    let l0 = p0.Params.l and bl0 = p0.Params.big_l in
    Array.iter
      (fun (p, _) ->
        if p.Params.l <> l0 || p.Params.big_l <> bl0 then
          invalid_arg "Model.solve_panel: stories must share the domain (l, L)")
      stories;
    match scheme with
    | Ftcs ->
      (* stories with different d get different CFL-clipped steps, so
         FTCS solves story by story (each a width-1 panel) *)
      Array.map (fun (p, phi) -> solve ~scheme ~nx ~dt p ~phi ~times) stories
    | Crank_nicolson | Strang ->
      let sols =
        Pde.solve_panel ~scheme:(pde_scheme scheme) ~dt ?workspace
          (Array.map (fun (p, phi) -> dl_problem ~nx p ~phi) stories)
          ~times
      in
      Array.mapi (fun i (p, _) -> { params = p; pde = sols.(i) }) stories
  end

let solve_extended ?(scheme = Crank_nicolson) ?(nx = 101) ?(dt = 0.01) params
    ~diffusion ~growth ~phi ~times =
  check_times times;
  let p = { (problem_of params ~phi ~diffusion ~growth) with Pde.nx } in
  let pde_scheme =
    match scheme with
    | Ftcs -> Pde.Ftcs
    | Crank_nicolson | Strang -> Pde.Imex 0.5
  in
  { params; pde = Pde.solve ~scheme:pde_scheme ~dt p ~times }

let predict sol ~x ~t = Pde.eval sol.pde ~x ~t
let predictor sol = Pde.evaluator sol.pde

let predict_profile sol ~t =
  let snap = Pde.snapshot sol.pde ~t in
  Array.mapi (fun i x -> (x, snap.(i))) sol.pde.Pde.xs

let predict_at_distances sol ~distances ~t =
  Array.map (fun x -> predict sol ~x:(float_of_int x) ~t) distances

(* The panel stepper is only allowed to exist because it is
   bit-identical to the reference stepper: same floating-point
   operations in the same order, only the array churn, the repeated
   factorizations and the boxed reaction calls removed.  These tests
   enforce that contract (per-cell Int64 bit equality, not approximate
   checks) for [Pde.solve] (a width-1 panel) and every [solve_panel]
   column, plus the batched Thomas algebra, the metric attribution of
   the two entry points, and the fitting-objective memo. *)

open Numerics

(* --- Tridiag: batched Thomas vs one-shot solve --- *)

let random_dominant_system rng n =
  let sub = Array.init (n - 1) (fun _ -> Rng.uniform rng (-1.) 1.) in
  let sup = Array.init (n - 1) (fun _ -> Rng.uniform rng (-1.) 1.) in
  let diag =
    Array.init n (fun i ->
        let row =
          (if i > 0 then Float.abs sub.(i - 1) else 0.)
          +. if i < n - 1 then Float.abs sup.(i) else 0.
        in
        row +. Rng.uniform rng 0.5 2.)
  in
  (Tridiag.make ~sub ~diag ~sup, Array.init n (fun _ -> Rng.uniform rng (-5.) 5.))

let pack_panel ~n ~ns get =
  let p = Tridiag.panel_create ~n ~stories:ns in
  for i = 0 to n - 1 do
    for s = 0 to ns - 1 do
      Bigarray.Array2.set p i s (get s i)
    done
  done;
  p

let col (p : Tridiag.panel) ~n s = Array.init n (fun i -> Bigarray.Array2.get p i s)

(* sub/diag/sup panels of [systems]; off-diagonal panels allocated with
   n rows on purpose: the extra row is part of the documented layout
   and must be ignored *)
let pack_systems ~n systems =
  let ns = Array.length systems in
  ( pack_panel ~n ~ns (fun s i ->
        if i < n - 1 then (fst systems.(s)).Tridiag.sub.(i) else nan),
    pack_panel ~n ~ns (fun s i -> (fst systems.(s)).Tridiag.diag.(i)),
    pack_panel ~n ~ns (fun s i ->
        if i < n - 1 then (fst systems.(s)).Tridiag.sup.(i) else nan) )

let check_bits name expect got =
  Array.iteri
    (fun i v ->
      if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float got.(i)))
      then Alcotest.failf "%s: cell %d: %.17g vs %.17g" name i v got.(i))
    expect

(* The d'-sweep and back-substitution the panel stepper fuses into its
   step, against a [factorize_batch] factorization, in [Tridiag.solve]'s
   operation order.  [src == dst] is allowed, as in the stepper, which
   stores d' and overwrites it with the solution in one column. *)
let solve_column ~sub ~c ~m ~src ~dst ~n s =
  let open Bigarray.Array2 in
  set dst 0 s (get src 0 s /. get m 0 s);
  for i = 1 to n - 1 do
    set dst i s
      ((get src i s -. (get sub (i - 1) s *. get dst (i - 1) s)) /. get m i s)
  done;
  for i = n - 2 downto 0 do
    set dst i s (get dst i s -. (get c i s *. get dst (i + 1) s))
  done

let solve_panel_columns ~sub ~c ~m ~src ~dst ~n ~ns =
  for s = 0 to ns - 1 do
    solve_column ~sub ~c ~m ~src ~dst ~n s
  done

let test_factorize_matches_solve () =
  (* the batched c'-sweep + d'-sweep against the one-shot solve, down
     to the degenerate sizes (n = 1 has no off-diagonals at all) *)
  let rng = Rng.create 42 in
  List.iter
    (fun n ->
      let ns = 2 in
      let systems = Array.init ns (fun _ -> random_dominant_system rng n) in
      let sub, diag, sup = pack_systems ~n systems in
      let c = Tridiag.panel_create ~n ~stories:ns
      and m = Tridiag.panel_create ~n ~stories:ns in
      Tridiag.factorize_batch ~sub ~diag ~sup ~c ~m;
      let dst = Tridiag.panel_create ~n ~stories:ns in
      solve_panel_columns ~sub ~c ~m
        ~src:(pack_panel ~n ~ns (fun s i -> (snd systems.(s)).(i)))
        ~dst ~n ~ns;
      Array.iteri
        (fun s (t, b) ->
          check_bits (Printf.sprintf "n=%d story %d" n s) (Tridiag.solve t b)
            (col dst ~n s))
        systems)
    [ 1; 2; 3; 7; 41 ]

let test_factorize_singular_raises () =
  (* a pivot that only vanishes mid-sweep: m_1 = 1 - 1 * (1 / 1) = 0 *)
  let one = pack_panel ~n:2 ~ns:1 (fun _ _ -> 1.) in
  let c = Tridiag.panel_create ~n:2 ~stories:1
  and m = Tridiag.panel_create ~n:2 ~stories:1 in
  try
    Tridiag.factorize_batch ~sub:one ~diag:one ~sup:one ~c ~m;
    Alcotest.fail "expected Mat.Singular"
  with Mat.Singular -> ()

let test_batch_thomas_matches_scalar () =
  let rng = Rng.create 19 in
  let n = 23 and ns = 5 in
  let systems = Array.init ns (fun _ -> random_dominant_system rng n) in
  let sub, diag, sup = pack_systems ~n systems in
  let c = Tridiag.panel_create ~n ~stories:ns
  and m = Tridiag.panel_create ~n ~stories:ns in
  Tridiag.factorize_batch ~sub ~diag ~sup ~c ~m;
  let src = pack_panel ~n ~ns (fun s i -> (snd systems.(s)).(i)) in
  let dst = Tridiag.panel_create ~n ~stories:ns in
  solve_panel_columns ~sub ~c ~m ~src ~dst ~n ~ns;
  Array.iteri
    (fun s (t, b) ->
      check_bits (Printf.sprintf "story %d" s) (Tridiag.solve t b)
        (col dst ~n s))
    systems

let test_factored_reused_across_rhs () =
  (* one batched c'-sweep, many right-hand sides (as in a time-stepping
     loop): each must still match the one-shot solve bit for bit *)
  let rng = Rng.create 7 in
  let n = 31 and ns = 3 in
  let systems = Array.init ns (fun _ -> random_dominant_system rng n) in
  let sub, diag, sup = pack_systems ~n systems in
  let c = Tridiag.panel_create ~n ~stories:ns
  and m = Tridiag.panel_create ~n ~stories:ns in
  Tridiag.factorize_batch ~sub ~diag ~sup ~c ~m;
  let dst = Tridiag.panel_create ~n ~stories:ns in
  for _ = 1 to 5 do
    let rhs =
      Array.init ns (fun _ -> Array.init n (fun _ -> Rng.uniform rng (-3.) 3.))
    in
    solve_panel_columns ~sub ~c ~m
      ~src:(pack_panel ~n ~ns (fun s i -> rhs.(s).(i)))
      ~dst ~n ~ns;
    Array.iteri
      (fun s (t, _) ->
        check_bits (Printf.sprintf "story %d" s) (Tridiag.solve t rhs.(s))
          (col dst ~n s))
      systems
  done

let test_batch_solve_in_place () =
  (* d' stored over the right-hand side and then overwritten by the
     solution, in one column: identical bits *)
  let rng = Rng.create 23 in
  let n = 17 and ns = 3 in
  let systems = Array.init ns (fun _ -> random_dominant_system rng n) in
  let sub, diag, sup = pack_systems ~n systems in
  let c = Tridiag.panel_create ~n ~stories:ns
  and m = Tridiag.panel_create ~n ~stories:ns in
  Tridiag.factorize_batch ~sub ~diag ~sup ~c ~m;
  let buf = pack_panel ~n ~ns (fun s i -> (snd systems.(s)).(i)) in
  solve_panel_columns ~sub ~c ~m ~src:buf ~dst:buf ~n ~ns;
  Array.iteri
    (fun s (t, b) ->
      check_bits (Printf.sprintf "in-place story %d" s) (Tridiag.solve t b)
        (col buf ~n s))
    systems

let test_batch_singular_raises () =
  let sub = pack_panel ~n:2 ~ns:2 (fun _ i -> if i = 0 then 1. else nan) in
  let sup = pack_panel ~n:2 ~ns:2 (fun _ i -> if i = 0 then 1. else nan) in
  (* story 1 has a zero leading pivot *)
  let diag = pack_panel ~n:2 ~ns:2 (fun s _ -> if s = 1 then 0. else 2.) in
  let c = Tridiag.panel_create ~n:2 ~stories:2
  and m = Tridiag.panel_create ~n:2 ~stories:2 in
  try
    Tridiag.factorize_batch ~sub ~diag ~sup ~c ~m;
    Alcotest.fail "expected Mat.Singular"
  with Mat.Singular -> ()

(* --- Pde.solve vs the reference stepper: bit identity --- *)

(* The paper-shaped DL problem with its reaction in each representation
   the solver accepts; the [Custom] closure computes the logistic
   formula through the boxed path. *)
let dl_problem reaction =
  let r = { Pde.a = 1.4; b = 1.5; c = 0.25 } in
  let k = 25. in
  {
    Pde.xl = 1.;
    xr = 6.;
    (* dx = 5/36: not a power of two, so reassociating a division by
       dx^2 changes bits *)
    nx = 37;
    diffusion = (fun _ -> 0.05);
    reaction =
      (match reaction with
      | `Logistic -> Pde.Logistic { r; k }
      | `Linear -> Pde.Linear { r }
      | `Custom ->
        Pde.Custom
          (fun ~x:_ ~t ~u -> Pde.rate_eval r t *. u *. (1. -. (u /. k))));
    initial = (fun x -> 8. *. exp (-0.5 *. (x -. 1.)));
    t0 = 1.;
  }

(* snapshot times that are not multiples of dt, so the loop hits the
   ragged-final-partial-step path (operators refactorized for the short
   step) as well as the macro-step path *)
let ragged_times = [| 1.303; 2.5; 3.017 |]

let check_solutions_bit_identical name (a : Pde.solution) (b : Pde.solution) =
  Alcotest.(check int) (name ^ ": snapshot count") (Array.length a.Pde.values)
    (Array.length b.Pde.values);
  Array.iteri
    (fun it row ->
      Array.iteri
        (fun ix v ->
          let w = b.Pde.values.(it).(ix) in
          if not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w))
          then
            Alcotest.failf "%s: cell (it=%d, ix=%d) differs: %.17g vs %.17g"
              name it ix v w)
        row)
    a.Pde.values

let test_solve_bit_identical () =
  (* every scheme x reaction shape the solver accepts (Strang has no
     Custom flow); FTCS also at a dt its CFL limit clips *)
  List.iter
    (fun (name, scheme, dt, reactions) ->
      List.iter
        (fun (rname, reaction) ->
          let p = dl_problem reaction in
          check_solutions_bit_identical
            (Printf.sprintf "%s/%s" name rname)
            (Pde.solve ~scheme ~dt p ~times:ragged_times)
            (Pde.solve_reference ~scheme ~dt p ~times:ragged_times))
        reactions)
    (let named = [ ("logistic", `Logistic); ("linear", `Linear) ] in
     let all = named @ [ ("custom", `Custom) ] in
     [
       ("ftcs", Pde.Ftcs, 0.01, all);
       ("ftcs-clipped", Pde.Ftcs, 0.2, all);
       ("imex-cn", Pde.Imex 0.5, 0.01, all);
       ("imex-implicit", Pde.Imex 1., 0.01, all);
       ("strang", Pde.Strang, 0.01, named);
     ])

let test_fit_resolution_zero_cells () =
  (* the configuration every Nelder--Mead objective evaluation solves
     (nx 41, dt 0.05, Strang, t 1 -> 4), from a profile that is exactly
     0 past x = 3.5, as a floored spline initial condition is: the
     flows' u = 0 branch must match the reference too *)
  List.iter
    (fun (rname, reaction) ->
      let p =
        {
          (dl_problem reaction) with
          Pde.nx = 41;
          initial =
            (fun x -> if x > 3.5 then 0. else 8. *. exp (-0.5 *. (x -. 1.)));
        }
      in
      let times = [| 2.; 3.; 4. |] in
      check_solutions_bit_identical ("fit-resolution " ^ rname)
        (Pde.solve ~scheme:Pde.Strang ~dt:0.05 p ~times)
        (Pde.solve_reference ~scheme:Pde.Strang ~dt:0.05 p ~times))
    [ ("logistic", `Logistic); ("linear", `Linear) ]

let test_minimum_grid () =
  (* nx = 3: every cell is a boundary or next to one *)
  List.iter
    (fun (name, scheme, reactions) ->
      List.iter
        (fun (rname, reaction) ->
          let p = { (dl_problem reaction) with Pde.nx = 3 } in
          check_solutions_bit_identical
            (Printf.sprintf "nx=3 %s/%s" name rname)
            (Pde.solve ~scheme ~dt:0.01 p ~times:ragged_times)
            (Pde.solve_reference ~scheme ~dt:0.01 p ~times:ragged_times))
        reactions)
    (let named = [ ("logistic", `Logistic); ("linear", `Linear) ] in
     [
       ("strang", Pde.Strang, named);
       ("imex-cn", Pde.Imex 0.5, named @ [ ("custom", `Custom) ]);
     ])

let expect_invalid_arg what f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument for %s" what
  | exception Invalid_argument _ -> ()

let test_solve_strang_rejects_custom () =
  let p = dl_problem `Custom in
  expect_invalid_arg "Custom under Strang (solve)" (fun () ->
      Pde.solve ~scheme:Pde.Strang ~dt:0.01 p ~times:[| 2. |]);
  expect_invalid_arg "Custom under Strang (reference)" (fun () ->
      Pde.solve_reference ~scheme:Pde.Strang ~dt:0.01 p ~times:[| 2. |])

(* --- metric attribution of the two entry points --- *)

let with_obs_enabled f =
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let test_solve_metric_attribution () =
  with_obs_enabled (fun () ->
      let names =
        [ "pde.solves"; "pde.steps"; "pde.panel_solves"; "pde.panel_steps";
          "pde.panel_reuses"; "pde.panel_rebuilds" ]
      in
      let read () =
        List.map
          (fun n -> Obs.Metrics.counter_value (Obs.Metrics.counter n))
          names
      in
      let delta f =
        let before = read () in
        f ();
        List.map2 ( - ) (read ()) before
      in
      let p = dl_problem `Logistic in
      let times = [| 2. |] in
      (* 100 macro steps of dt = 0.01 from t0 = 1 to t = 2 *)
      Alcotest.(check (list int)) "Pde.solve counts only pde.solves/steps"
        [ 1; 100; 0; 0; 0; 0 ]
        (delta (fun () -> ignore (Pde.solve ~dt:0.01 p ~times)));
      Alcotest.(check (list int)) "solve_panel counts only pde.panel_*"
        [ 0; 0; 1; 100; 0; 1 ]
        (delta (fun () -> ignore (Pde.solve_panel ~dt:0.01 [| p; p |] ~times)));
      Alcotest.(check (list int)) "the reference counts nothing"
        [ 0; 0; 0; 0; 0; 0 ]
        (delta (fun () -> ignore (Pde.solve_reference ~dt:0.01 p ~times))))

(* --- fused panel solves vs per-story reference solves --- *)

(* A pseudo-random story: paper-shaped r(t), per-story (d, k,
   amplitude) unless [d] is given.  [kind] selects the reaction
   representation; the [Custom] closure computes the same logistic
   formula through the boxed path. *)
let random_story ?d rng kind =
  let d = match d with Some d -> d | None -> Rng.uniform rng 0.01 0.3 in
  let a = Rng.uniform rng 0.3 1.8 in
  let b = Rng.uniform rng 0.5 2.0 in
  let c = Rng.uniform rng 0.1 0.5 in
  let r = { Pde.a; b; c } in
  let k = Rng.uniform rng 5. 40. in
  let amp = Rng.uniform rng 2. 10. in
  {
    Pde.xl = 1.;
    xr = 6.;
    nx = 25;
    diffusion = (fun _ -> d);
    reaction =
      (match kind with
      | 0 -> Pde.Logistic { r; k }
      | 1 -> Pde.Linear { r }
      | _ ->
        Pde.Custom
          (fun ~x:_ ~t ~u -> Pde.rate_eval r t *. u *. (1. -. (u /. k))));
    initial = (fun x -> amp *. exp (-0.5 *. (x -. 1.)));
    t0 = 1.;
  }

let check_panel_matches_reference ?workspace ~scheme ~kinds seed ns =
  let rng = Rng.create seed in
  (* FTCS panels need one CFL-clipped step for all stories: share d *)
  let d =
    match scheme with Pde.Ftcs -> Some (Rng.uniform rng 0.01 0.3) | _ -> None
  in
  let problems = Array.init ns (fun s -> random_story ?d rng (kinds s)) in
  let sols =
    Pde.solve_panel ~scheme ~dt:0.01 ?workspace problems ~times:ragged_times
  in
  Alcotest.(check int) "panel story count" ns (Array.length sols);
  Array.iteri
    (fun s p ->
      check_solutions_bit_identical (Printf.sprintf "panel story %d" s) sols.(s)
        (Pde.solve_reference ~scheme ~dt:0.01 p ~times:ragged_times))
    problems

let prop_panel_bit_identity =
  (* panel sizes 1/2/17, all three schemes (IMEX at theta 0.5 and 1),
     ragged snapshot times and
     mixed reaction shapes — including Custom stories exercising the
     closure path under FTCS and IMEX.  Every column must reproduce the
     per-story reference solve bit for bit. *)
  QCheck.Test.make ~count:10 ~name:"solve_panel bit-identical per story"
    QCheck.(triple (oneofl [ 1; 2; 17 ]) (oneofl [ 0; 1; 2; 3 ]) small_nat)
    (fun (ns, which, seed) ->
      let scheme =
        [| Pde.Imex 0.5; Pde.Strang; Pde.Ftcs; Pde.Imex 1. |].(which)
      in
      (* Strang panels cannot carry Custom; the others cycle all three *)
      let kinds s = if scheme = Pde.Strang then s mod 2 else s mod 3 in
      check_panel_matches_reference ~scheme ~kinds (seed + (7 * ns)) ns;
      true)

(* --- Strang's inlined Simpson kernel vs the reference's memo --- *)

(* A Strang panel of [rates] (story [s] Logistic when [logistic s],
   else Linear), every column against its reference solve. *)
let check_strang_panel ?workspace ?(t0 = 1.) ~dt ~times name rates logistic =
  let problems =
    Array.mapi
      (fun s r ->
        let fs = float_of_int s in
        {
          Pde.xl = 1.;
          xr = 6.;
          nx = 29;
          diffusion = (fun _ -> 0.04 +. (0.01 *. fs));
          reaction =
            (if logistic s then Pde.Logistic { r; k = 20. +. fs }
             else Pde.Linear { r });
          initial =
            (fun x ->
              if x > 4.5 then 0. else (5. +. fs) *. exp (-0.5 *. (x -. 1.)));
          t0;
        })
      rates
  in
  let sols =
    Pde.solve_panel ~scheme:Pde.Strang ~dt ?workspace problems ~times
  in
  Array.iteri
    (fun s p ->
      check_solutions_bit_identical (Printf.sprintf "%s story %d" name s)
        sols.(s)
        (Pde.solve_reference ~scheme:Pde.Strang ~dt p ~times))
    problems

let test_strang_rate_kernel () =
  let paper = { Pde.a = 1.4; b = 1.5; c = 0.25 } in
  let cases =
    [
      ("constant rate (a = 0)", [| { Pde.a = 0.; b = 0.; c = 0.7 } |]);
      ("b = 0", [| { Pde.a = 1.2; b = 0.; c = 0.3 } |]);
      ("growing rate (a < 0)", [| { Pde.a = -0.4; b = 0.8; c = 0.9 } |]);
      ("paper rate", [| paper |]);
    ]
  in
  List.iter
    (fun (name, rates) ->
      List.iter
        (fun (shape, logistic) ->
          let name = name ^ " " ^ shape in
          (* the fits' step and snapshots: most steps reuse the previous
             step's end node *)
          check_strang_panel ~dt:0.05 ~times:[| 2.; 3.; 4. |] name rates
            logistic;
          (* a dt that divides no snapshot gap: ragged final steps, end
             nodes that miss *)
          check_strang_panel ~dt:0.07 ~times:ragged_times (name ^ " ragged")
            rates logistic;
          (* t0 <> 1, so r is not at its t = 1 reference point *)
          check_strang_panel ~t0:0.35 ~dt:0.03 ~times:[| 0.8; 2.2 |]
            (name ^ " t0 0.35") rates logistic)
        [ ("logistic", fun _ -> true); ("linear", fun _ -> false) ])
    cases;
  (* one mixed panel: Logistic and Linear stories, different rates *)
  let mixed =
    [| paper; { Pde.a = 0.; b = 0.; c = 0.5 }; { Pde.a = 0.9; b = 0.; c = 0.1 };
       { Pde.a = 1.7; b = 2.2; c = 0.05 }; { Pde.a = 0.6; b = 0.7; c = 0.2 } |]
  in
  check_strang_panel ~dt:0.05 ~times:[| 2.; 3.; 4. |] "mixed panel" mixed
    (fun s -> s mod 2 = 0);
  check_strang_panel ~dt:0.07 ~times:ragged_times "mixed panel ragged" mixed
    (fun s -> s mod 2 = 1)

let test_strang_end_node_reset () =
  (* the end-node slot is per solve: a workspace whose last solve ended
     its final step at t = 3 must not hand that story's r(3) to a new
     solve that starts at t0 = 3 with another rate *)
  let ws = Pde.panel_workspace () in
  check_strang_panel ~workspace:ws ~dt:0.5 ~times:[| 2.; 3. |] "first solve"
    [| { Pde.a = 1.4; b = 1.5; c = 0.25 } |] (fun _ -> true);
  check_strang_panel ~workspace:ws ~t0:3. ~dt:0.5 ~times:[| 4. |]
    "solve after" [| { Pde.a = 0.3; b = 0.2; c = 1.1 } |] (fun _ -> true);
  Alcotest.(check (pair int int)) "one workspace, reused" (1, 1)
    (Pde.panel_workspace_stats ws)

let test_panel_strang_rejects_custom () =
  let rng = Rng.create 3 in
  expect_invalid_arg "Custom under Strang (panel)" (fun () ->
      Pde.solve_panel ~scheme:Pde.Strang ~dt:0.01
        [| random_story rng 0; random_story rng 2 |]
        ~times:[| 2. |])

let test_ftcs_panel_rejects_mixed_cfl () =
  (* on this grid d = 0.05 keeps dt = 0.5 clipped to 0.9 x its CFL
     limit, d = 0.3 to a step six times smaller: no lockstep march *)
  let rng = Rng.create 9 in
  let slow = random_story ~d:0.05 rng 0 and fast = random_story ~d:0.3 rng 0 in
  expect_invalid_arg "mixed CFL steps" (fun () ->
      Pde.solve_panel ~scheme:Pde.Ftcs ~dt:0.5 [| slow; fast |]
        ~times:[| 2. |]);
  (* and mismatched grids are rejected for every scheme *)
  expect_invalid_arg "mixed grids" (fun () ->
      Pde.solve_panel ~dt:0.01 [| slow; { fast with Pde.nx = 31 } |]
        ~times:[| 2. |])

let test_workspace_no_state_leak () =
  (* a reused workspace keeps its buffers, never its contents: the
     same scheme and dt on new stories must not see the previous
     stories' operators, and a repeat solve reproduces the first *)
  let ws = Pde.panel_workspace () in
  let problems seed =
    let rng = Rng.create seed in
    Array.init 3 (fun s -> random_story rng (s mod 3))
  in
  let solve ps =
    Pde.solve_panel ~scheme:(Pde.Imex 0.5) ~dt:0.01 ~workspace:ws ps
      ~times:ragged_times
  in
  let a = problems 1 and b = problems 2 in
  let first = solve a in
  Array.iteri
    (fun s sol ->
      check_solutions_bit_identical (Printf.sprintf "new stories %d" s) sol
        (Pde.solve_reference ~dt:0.01 b.(s) ~times:ragged_times))
    (solve b);
  Array.iteri
    (fun s sol ->
      check_solutions_bit_identical (Printf.sprintf "repeat %d" s) sol
        first.(s))
    (solve a)

let test_panel_workspace_reuse () =
  with_obs_enabled (fun () ->
      let reuses = Obs.Metrics.counter "pde.panel_reuses" in
      let rebuilds = Obs.Metrics.counter "pde.panel_rebuilds" in
      let r0 = Obs.Metrics.counter_value reuses in
      let b0 = Obs.Metrics.counter_value rebuilds in
      let ws = Pde.panel_workspace () in
      (* same shape twice: one rebuild then one reuse, results
         unchanged by the recycled buffers *)
      check_panel_matches_reference ~workspace:ws ~scheme:(Pde.Imex 0.5)
        ~kinds:(fun s -> s mod 3) 11 4;
      check_panel_matches_reference ~workspace:ws ~scheme:Pde.Strang
        ~kinds:(fun s -> s mod 2) 13 4;
      Alcotest.(check (pair int int)) "workspace stats" (1, 1)
        (Pde.panel_workspace_stats ws);
      (* shape change reallocates *)
      check_panel_matches_reference ~workspace:ws ~scheme:(Pde.Imex 0.5)
        ~kinds:(fun s -> s mod 3) 17 2;
      Alcotest.(check (pair int int)) "workspace stats after reshape" (1, 2)
        (Pde.panel_workspace_stats ws);
      Alcotest.(check int) "pde.panel_reuses counter" 1
        (Obs.Metrics.counter_value reuses - r0);
      Alcotest.(check int) "pde.panel_rebuilds counter" 2
        (Obs.Metrics.counter_value rebuilds - b0))

let model_phi () =
  Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
    ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]

let test_model_solve_workspace_bit_identical () =
  (* Model.solve ?workspace runs on the caller's panel workspace:
     outputs must not move by a bit for any scheme *)
  let phi = model_phi () in
  let times = [| 2.; 3.5; 4.017 |] in
  let ws = Pde.panel_workspace () in
  List.iter
    (fun scheme ->
      let plain = Dl.Model.solve ~scheme Dl.Params.paper_hops ~phi ~times in
      let panel =
        Dl.Model.solve ~scheme ~workspace:ws Dl.Params.paper_hops ~phi ~times
      in
      check_solutions_bit_identical "model workspace" plain.Dl.Model.pde
        panel.Dl.Model.pde)
    [ Dl.Model.Ftcs; Dl.Model.Crank_nicolson; Dl.Model.Strang ]

let test_model_solve_panel_shared_domain () =
  let phi = model_phi () in
  let times = [| 2.; 3.; 4. |] in
  let p1 = Dl.Params.paper_hops in
  let p2 = { p1 with Dl.Params.d = p1.Dl.Params.d *. 1.5; k = 30. } in
  let sols = Dl.Model.solve_panel [| (p1, phi); (p2, phi) |] ~times in
  Array.iteri
    (fun i (p, _) ->
      let expect = Dl.Model.solve p ~phi ~times in
      check_solutions_bit_identical
        (Printf.sprintf "model panel story %d" i)
        sols.(i).Dl.Model.pde expect.Dl.Model.pde)
    [| (p1, phi); (p2, phi) |];
  (* mismatched domains are rejected *)
  let p3 = { p1 with Dl.Params.big_l = p1.Dl.Params.big_l +. 1. } in
  expect_invalid_arg "mixed domains" (fun () ->
      Dl.Model.solve_panel [| (p1, phi); (p3, phi) |] ~times)

(* --- eval hardening --- *)

let test_eval_rejects_nan () =
  let p = dl_problem `Custom in
  let sol = Pde.solve ~dt:0.01 p ~times:[| 2. |] in
  let expect_invalid x t =
    try
      ignore (Pde.eval sol ~x ~t);
      Alcotest.fail "expected Invalid_argument on NaN"
    with Invalid_argument _ -> ()
  in
  expect_invalid Float.nan 2.;
  expect_invalid 3. Float.nan;
  (* the hoisted evaluator must agree with eval on normal queries *)
  let ev = Pde.evaluator sol in
  List.iter
    (fun (x, t) ->
      Alcotest.(check bool) "evaluator = eval" true
        (Float.equal (ev ~x ~t) (Pde.eval sol ~x ~t)))
    [ (1.0, 1.0); (3.25, 1.7); (6.0, 2.0); (0.0, 0.0); (99., 99.) ]

(* --- mass conservation on the factored diffusion path (qcheck) --- *)

let prop_factored_diffusion_mass =
  QCheck.Test.make ~count:30
    ~name:"factored Imex diffusion conserves mass"
    QCheck.(pair (float_range 0.05 0.8) (int_range 31 81))
    (fun (d, nx) ->
      let p =
        {
          Pde.xl = 0.;
          xr = 10.;
          nx;
          diffusion = (fun _ -> d);
          reaction = Pde.Custom (fun ~x:_ ~t:_ ~u:_ -> 0.);
          initial = (fun x -> exp (-.((x -. 5.) ** 2.)));
          t0 = 0.;
        }
      in
      let sol =
        Pde.solve ~scheme:(Pde.Imex 0.5) ~dt:5e-3 p ~times:[| 0.7; 1.9 |]
      in
      let m0 = Pde.mass sol ~it:0 in
      let ok = ref true in
      for it = 1 to Array.length sol.Pde.ts - 1 do
        if Float.abs (Pde.mass sol ~it -. m0) > 1e-6 *. Float.max 1. m0 then
          ok := false
      done;
      !ok)

(* --- fitting-objective memo --- *)

let paper_like_phi () =
  Dl.Initial.of_observations ~xs:[| 1.; 2.; 3.; 4.; 5.; 6. |]
    ~densities:[| 6.0; 3.1; 2.3; 1.2; 0.7; 0.4 |]

let synthetic_obs params =
  let phi = paper_like_phi () in
  let times = [| 1.; 2.; 3.; 4.; 5.; 6. |] in
  let sol = Dl.Model.solve params ~phi ~times in
  let distances = [| 1; 2; 3; 4; 5; 6 |] in
  {
    Socialnet.Density.distances;
    times;
    density =
      Array.map
        (fun x ->
          Array.map (fun t -> Dl.Model.predict sol ~x:(float_of_int x) ~t) times)
        distances;
    population = Array.map (fun _ -> 100) distances;
  }

(* near-degenerate bounds: every Nelder--Mead trial point clamps onto
   (essentially) a corner of the tiny box, so the clamped-vector memo
   must serve a large share of the evaluations *)
let tight_config () =
  let eps = 1e-9 in
  {
    Dl.Fit.default_config with
    starts = 2;
    d_bounds = (0.01, 0.01 +. eps);
    k_headroom = (1.05, 1.05 +. eps);
    a_bounds = (1.4, 1.4 +. eps);
    b_bounds = (1.5, 1.5 +. eps);
    c_bounds = (0.25, 0.25 +. eps);
  }

let test_objective_memo_hit_rate () =
  with_obs_enabled (fun () ->
      let hits = Obs.Metrics.counter "fit.objective_cache_hits" in
      let h0 = Obs.Metrics.counter_value hits in
      let obs = synthetic_obs Dl.Params.paper_hops in
      let r = Dl.Fit.fit ~config:(tight_config ()) (Rng.create 3) obs in
      let dh = Obs.Metrics.counter_value hits - h0 in
      Alcotest.(check bool) "memo serves a majority of evaluations" true
        (dh * 2 > r.Dl.Fit.evaluations);
      (* memo off: same seed, zero additional hits *)
      Dl.Fit.set_objective_memo false;
      Fun.protect
        ~finally:(fun () -> Dl.Fit.set_objective_memo true)
        (fun () ->
          let h1 = Obs.Metrics.counter_value hits in
          ignore (Dl.Fit.fit ~config:(tight_config ()) (Rng.create 3) obs);
          Alcotest.(check int) "no hits with memo off" h1
            (Obs.Metrics.counter_value hits)))

let test_fit_identical_with_and_without_caches () =
  (* a seeded fit lands on bit-identical parameters with the objective
     memo on and off: a memo hit is the previously computed float *)
  let obs = synthetic_obs Dl.Params.paper_hops in
  let config = { Dl.Fit.default_config with starts = 2 } in
  let run () = Dl.Fit.fit ~config (Rng.create 3) obs in
  let cached = run () in
  Dl.Fit.set_objective_memo false;
  let plain =
    Fun.protect ~finally:(fun () -> Dl.Fit.set_objective_memo true) run
  in
  let p1 = cached.Dl.Fit.params and p2 = plain.Dl.Fit.params in
  let checkbit name a b =
    if not (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) then
      Alcotest.failf "%s differs: %.17g vs %.17g" name a b
  in
  checkbit "d" p1.Dl.Params.d p2.Dl.Params.d;
  checkbit "k" p1.Dl.Params.k p2.Dl.Params.k;
  checkbit "training error" cached.Dl.Fit.training_error
    plain.Dl.Fit.training_error;
  Alcotest.(check int) "same evaluation count" cached.Dl.Fit.evaluations
    plain.Dl.Fit.evaluations

(* --- objective failure handling --- *)

let test_objective_expected_failure_is_infinite () =
  (* a fit_times set that starts before t0 = 1 makes Model.solve raise
     Invalid_argument: objective must absorb it as +inf, not crash *)
  let obs = synthetic_obs Dl.Params.paper_hops in
  let phi = paper_like_phi () in
  let v =
    Dl.Fit.objective ~phi ~obs ~fit_times:[| 0.5 |] Dl.Params.paper_hops
  in
  Alcotest.(check bool) "expected failure maps to infinity" true
    (v = infinity)

let suite =
  [
    Alcotest.test_case "tridiag factorize = solve" `Quick
      test_factorize_matches_solve;
    Alcotest.test_case "factorize singular" `Quick
      test_factorize_singular_raises;
    Alcotest.test_case "batch thomas = scalar" `Quick
      test_batch_thomas_matches_scalar;
    Alcotest.test_case "factored reuse across rhs" `Quick
      test_factored_reused_across_rhs;
    Alcotest.test_case "batch solve in place" `Quick test_batch_solve_in_place;
    Alcotest.test_case "batch singular" `Quick test_batch_singular_raises;
    Alcotest.test_case "solve bit-identical to reference" `Quick
      test_solve_bit_identical;
    Alcotest.test_case "fit-resolution strang with zero cells" `Quick
      test_fit_resolution_zero_cells;
    Alcotest.test_case "minimum grid bit-identical" `Quick test_minimum_grid;
    Alcotest.test_case "solve strang rejects custom" `Quick
      test_solve_strang_rejects_custom;
    Alcotest.test_case "solve metric attribution" `Quick
      test_solve_metric_attribution;
    QCheck_alcotest.to_alcotest prop_panel_bit_identity;
    Alcotest.test_case "strang rate kernel bit-identical" `Quick
      test_strang_rate_kernel;
    Alcotest.test_case "strang end node reset per solve" `Quick
      test_strang_end_node_reset;
    Alcotest.test_case "panel strang rejects custom" `Quick
      test_panel_strang_rejects_custom;
    Alcotest.test_case "ftcs panel rejects mixed cfl" `Quick
      test_ftcs_panel_rejects_mixed_cfl;
    Alcotest.test_case "workspace no state leak" `Quick
      test_workspace_no_state_leak;
    Alcotest.test_case "panel workspace reuse" `Quick
      test_panel_workspace_reuse;
    Alcotest.test_case "model solve workspace bit-identical" `Quick
      test_model_solve_workspace_bit_identical;
    Alcotest.test_case "model solve_panel shared domain" `Quick
      test_model_solve_panel_shared_domain;
    Alcotest.test_case "eval rejects NaN" `Quick test_eval_rejects_nan;
    QCheck_alcotest.to_alcotest prop_factored_diffusion_mass;
    Alcotest.test_case "objective memo hit rate" `Quick
      test_objective_memo_hit_rate;
    Alcotest.test_case "fit identical with/without caches" `Slow
      test_fit_identical_with_and_without_caches;
    Alcotest.test_case "objective expected failure" `Quick
      test_objective_expected_failure_is_infinite;
  ]

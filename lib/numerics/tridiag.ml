type t = { sub : float array; diag : float array; sup : float array }

let make ~sub ~diag ~sup =
  let n = Array.length diag in
  assert (n >= 1);
  assert (Array.length sub = n - 1);
  assert (Array.length sup = n - 1);
  { sub; diag; sup }

let dim t = Array.length t.diag

let solve t b =
  let n = dim t in
  assert (Array.length b = n);
  (* Forward sweep with scratch copies; the classic Thomas algorithm. *)
  let c' = Array.make n 0. and d' = Array.make n 0. in
  let pivot0 = t.diag.(0) in
  if Float.abs pivot0 < 1e-300 then raise Mat.Singular;
  c'.(0) <- (if n > 1 then t.sup.(0) /. pivot0 else 0.);
  d'.(0) <- b.(0) /. pivot0;
  for i = 1 to n - 1 do
    let m = t.diag.(i) -. (t.sub.(i - 1) *. c'.(i - 1)) in
    if Float.abs m < 1e-300 then raise Mat.Singular;
    if i < n - 1 then c'.(i) <- t.sup.(i) /. m;
    d'.(i) <- (b.(i) -. (t.sub.(i - 1) *. d'.(i - 1))) /. m
  done;
  let x = Array.make n 0. in
  x.(n - 1) <- d'.(n - 1);
  for i = n - 2 downto 0 do
    x.(i) <- d'.(i) -. (c'.(i) *. x.(i + 1))
  done;
  x

(* ---------------------------------------------------------------- *)
(* Batched panels: S independent tridiagonal systems advanced in
   lockstep.  Storage is structure-of-arrays: a panel is a c_layout
   float64 [Bigarray.Array2.t] of dims [(n, stories)], so element
   [(i, s)] is grid cell [i] of story [s].  [factorize_batch]
   replicates [solve]'s pivot and c'-sweep per story, in the same
   order, so the PDE panel stepper can run the remaining d'-sweep and
   back-substitution bit-identically to [solve].  (The loop
   interchange — outer over [i], inner over [s] — is legal because the
   S systems are independent.) *)

type panel = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

let panel_create ~n ~stories : panel =
  assert (n >= 1 && stories >= 1);
  Bigarray.Array2.create Bigarray.Float64 Bigarray.c_layout n stories

let panel_dims (p : panel) = (Bigarray.Array2.dim1 p, Bigarray.Array2.dim2 p)

let check_panel name (p : panel) ~rows ~stories =
  if Bigarray.Array2.dim1 p <> rows || Bigarray.Array2.dim2 p <> stories then
    invalid_arg
      (Printf.sprintf "Tridiag.%s: panel dims (%d,%d), expected (%d,%d)" name
         (Bigarray.Array2.dim1 p) (Bigarray.Array2.dim2 p) rows stories)

(* Off-diagonal panels only need rows [0 .. n-2]; allowing extra rows
   lets callers allocate every panel of a workspace as [(n, stories)]. *)
let check_offdiag name (p : panel) ~rows ~stories =
  if Bigarray.Array2.dim1 p < rows || Bigarray.Array2.dim2 p <> stories then
    invalid_arg
      (Printf.sprintf
         "Tridiag.%s: off-diagonal panel dims (%d,%d), need (>=%d,%d)" name
         (Bigarray.Array2.dim1 p) (Bigarray.Array2.dim2 p) rows stories)

let factorize_batch ~(sub : panel) ~(diag : panel) ~(sup : panel) ~(c : panel)
    ~(m : panel) =
  let n = Bigarray.Array2.dim1 diag in
  let ns = Bigarray.Array2.dim2 diag in
  assert (n >= 1);
  check_offdiag "factorize_batch" sub ~rows:(n - 1) ~stories:ns;
  check_offdiag "factorize_batch" sup ~rows:(n - 1) ~stories:ns;
  check_panel "factorize_batch" c ~rows:n ~stories:ns;
  check_panel "factorize_batch" m ~rows:n ~stories:ns;
  let open Bigarray.Array2 in
  for s = 0 to ns - 1 do
    let pivot0 = unsafe_get diag 0 s in
    if Float.abs pivot0 < 1e-300 then raise Mat.Singular;
    unsafe_set m 0 s pivot0;
    unsafe_set c 0 s (if n > 1 then unsafe_get sup 0 s /. pivot0 else 0.)
  done;
  for i = 1 to n - 1 do
    for s = 0 to ns - 1 do
      let mi =
        unsafe_get diag i s
        -. (unsafe_get sub (i - 1) s *. unsafe_get c (i - 1) s)
      in
      if Float.abs mi < 1e-300 then raise Mat.Singular;
      unsafe_set m i s mi;
      if i < n - 1 then unsafe_set c i s (unsafe_get sup i s /. mi)
    done
  done

let mv t x =
  let n = dim t in
  assert (Array.length x = n);
  Array.init n (fun i ->
      let acc = ref (t.diag.(i) *. x.(i)) in
      if i > 0 then acc := !acc +. (t.sub.(i - 1) *. x.(i - 1));
      if i < n - 1 then acc := !acc +. (t.sup.(i) *. x.(i + 1));
      !acc)

let to_dense t =
  let n = dim t in
  Mat.init n n (fun i j ->
      if i = j then t.diag.(i)
      else if j = i + 1 then t.sup.(i)
      else if j = i - 1 then t.sub.(j)
      else 0.)

let is_diagonally_dominant t =
  let n = dim t in
  let ok = ref true in
  for i = 0 to n - 1 do
    let off =
      (if i > 0 then Float.abs t.sub.(i - 1) else 0.)
      +. if i < n - 1 then Float.abs t.sup.(i) else 0.
    in
    if Float.abs t.diag.(i) < off then ok := false
  done;
  !ok

(** Tridiagonal linear systems (Thomas algorithm).

    Used by the cubic-spline moment system and the Crank--Nicolson
    diffusion step, both of which are diagonally dominant, so the
    pivot-free Thomas algorithm is stable. *)

type t = {
  sub : float array;  (** sub-diagonal, length [n-1]; [sub.(i)] is row [i+1]. *)
  diag : float array; (** main diagonal, length [n]. *)
  sup : float array;  (** super-diagonal, length [n-1]; [sup.(i)] is row [i]. *)
}

val make : sub:float array -> diag:float array -> sup:float array -> t
(** Validates the three lengths. *)

val dim : t -> int

val solve : t -> Vec.t -> Vec.t
(** [solve sys b] solves the tridiagonal system in [O(n)].
    @raise Mat.Singular on a (numerically) zero pivot. *)

(** {2 Batched panels}

    S independent tridiagonal systems advanced in lockstep.  A panel
    is a structure-of-arrays [Bigarray.Array2.t] ([float64],
    [c_layout]) of dims [(n, stories)]: element [(i, s)] is row [i] of
    story [s], so the innermost story loop walks contiguous memory.
    Column [s] of every output is bit-identical to running the scalar
    routine on story [s] alone.  Off-diagonal panels ([sub]/[sup]) use
    rows [0 .. n-2]; they may be allocated with [n] rows (the last row
    is ignored). *)

type panel = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

val panel_create : n:int -> stories:int -> panel
(** Uninitialised [(n, stories)] panel. *)

val panel_dims : panel -> int * int
(** [(rows, stories)]. *)

val factorize_batch :
  sub:panel -> diag:panel -> sup:panel -> c:panel -> m:panel -> unit
(** Batched c'-sweep of {!solve}: one pass computes, for every story,
    the pivots (into [m]) and the swept super-diagonal (into [c]) that
    {!solve} computes internally, so they can be reused across many
    right-hand sides.  Dimensions are taken from [diag].
    @raise Mat.Singular on a (numerically) zero pivot in any story.
    @raise Invalid_argument on panel dimension mismatch. *)

val solve_factored_batch :
  sub:panel -> c:panel -> m:panel -> src:panel -> dst:panel -> unit
(** Batched d'-sweep + back-substitution against a factorization from
    {!factorize_batch}; column [s] is bit-identical to {!solve} on
    story [s].  [src == dst] is allowed and gives the same bits (the
    d'-sweep reads row [i] of [src] before writing row [i] of [dst],
    and earlier rows already hold d').
    @raise Invalid_argument on panel dimension mismatch. *)

val mv_batch :
  sub:panel -> diag:panel -> sup:panel -> src:panel -> dst:panel -> unit
(** Batched {!mv}: [dst.(i,s) <- (A_s src_s).(i)] with the same
    per-row accumulation order (diag, sub, sup).  [src] must not alias
    [dst].
    @raise Invalid_argument on dimension mismatch or aliasing. *)

val mv : t -> Vec.t -> Vec.t
(** Product of the tridiagonal matrix with a vector, in [O(n)]. *)

val to_dense : t -> Mat.t
(** Expansion to a dense matrix; intended for tests. *)

val is_diagonally_dominant : t -> bool
(** Weak row-wise diagonal dominance; a sufficient condition for the
    Thomas algorithm to be stable. *)

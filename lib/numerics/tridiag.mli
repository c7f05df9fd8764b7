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

    S independent tridiagonal systems stored side by side.  A panel is
    a structure-of-arrays [Bigarray.Array2.t] ([float64], [c_layout])
    of dims [(n, stories)]: element [(i, s)] is row [i] of story [s].
    Off-diagonal panels ([sub]/[sup]) use rows [0 .. n-2]; they may be
    allocated with [n] rows (the last row is ignored).  The PDE panel
    stepper ([Pde.solve_panel]) runs its fused sweeps on these. *)

type panel = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

val panel_create : n:int -> stories:int -> panel
(** Uninitialised [(n, stories)] panel. *)

val panel_dims : panel -> int * int
(** [(rows, stories)]. *)

val factorize_batch :
  sub:panel -> diag:panel -> sup:panel -> c:panel -> m:panel -> unit
(** Batched c'-sweep of {!solve}: one pass computes, for every story,
    the pivots (into [m]) and the swept super-diagonal (into [c]) that
    {!solve} computes internally, bit for bit, so they can be reused
    across many right-hand sides.  Dimensions are taken from [diag].
    @raise Mat.Singular on a (numerically) zero pivot in any story.
    @raise Invalid_argument on panel dimension mismatch. *)

val mv : t -> Vec.t -> Vec.t
(** Product of the tridiagonal matrix with a vector, in [O(n)]. *)

val to_dense : t -> Mat.t
(** Expansion to a dense matrix; intended for tests. *)

val is_diagonally_dominant : t -> bool
(** Weak row-wise diagonal dominance; a sufficient condition for the
    Thomas algorithm to be stable. *)

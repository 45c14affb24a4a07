(** The one exact affine layer: linear forms and linear constraints over
    {!Dml_numeric.Bigint}.

    A linear form is [c + sum_i k_i * x_i]; a constraint is a form compared
    to zero.  {!of_iexp} is the only translation of index expressions into
    such forms: {!Constr} solves existential witnesses with it (Section
    3.1), [Dml_cache.Canon] normalises the linear atoms of its cache keys
    with it, and the solver's Fourier--Motzkin and simplex procedures decide
    systems of its constraints (Section 3.2).  Every coefficient is a bignum,
    so no step wraps: Fourier--Motzkin combination multiplies coefficient
    pairs, and index constants may sum past [max_int]. *)

open Dml_numeric
open Dml_index

type form = { const : Bigint.t; coeffs : Bigint.t Ivar.Map.t }
(** Invariant: no coefficient in [coeffs] is zero. *)

val zero : form
val const : Bigint.t -> form
val of_int : int -> form
val var : Ivar.t -> form
val add : form -> form -> form
val sub : form -> form -> form
val neg : form -> form
val scale : Bigint.t -> form -> form
val coeff : Ivar.t -> form -> Bigint.t
val remove : Ivar.t -> form -> form
val is_const : form -> Bigint.t option
val vars : form -> Ivar.Set.t
val equal : form -> form -> bool

val of_iexp : Idx.iexp -> form option
(** Affine translation; [None] when the expression mentions a non-affine
    construct ([div], [mod], [min], [max], [abs], [sgn], or a product of two
    non-constant sub-expressions).  Run {!Dml_solver.Purify} first to remove
    those. *)

val to_iexp : form -> Idx.iexp option
(** The inverse of {!of_iexp}: [c + k_1*x_1 + ... + k_n*x_n] in variable
    order, with unit coefficients left implicit and a zero constant dropped.
    [None] when a coefficient or the constant does not fit in an [int]. *)

val solve_for : Ivar.t -> form -> form option
(** [solve_for v f] reads [f] as the equation [f = 0] and returns [v]'s
    image [e] ([v = e], [v] not in [e]) when [v]'s coefficient is [1] or
    [-1]; [None] otherwise. *)

val eval : Bigint.t Ivar.Map.t -> form -> Bigint.t
(** @raise Not_found on an unbound variable. *)

type kind = Le  (** form <= 0 *) | Eq  (** form = 0 *)

type cstr = { kind : kind; form : form }

val cstr_le : form -> cstr
val cstr_eq : form -> cstr
val cstr_vars : cstr -> Ivar.Set.t

val normalize : tighten:bool -> cstr -> cstr option
(** Divides through by the gcd of the variable coefficients.  With
    [~tighten:true] applies the paper's integral tightening: [k.x <= a]
    becomes [k/g . x <= floor(a/g)] (Section 3.2).  Returns [None] when the
    constraint is trivially true (a constant that satisfies its relation);
    a trivially false constraint is returned unchanged so the caller can
    detect the contradiction. *)

val is_trivially_false : cstr -> bool
val is_trivially_true : cstr -> bool

val pp_form : Format.formatter -> form -> unit
val pp_cstr : Format.formatter -> cstr -> unit

(** The index language of Section 2.2.

    Integer indices
    {v i, j ::= a | i+j | i-j | i*j | div(i,j) | mod(i,j)
              | min(i,j) | max(i,j) | abs(i) | sgn(i) v}
    boolean indices
    {v b ::= a | false | true | i<j | i<=j | i=j | i<>j | i>=j | i>j
           | ~b | b /\ b | b \/ b v}
    and index sorts [int], [bool] and subset sorts [{a : g | b}].

    Linearity is not enforced here: the exact affine layer
    ({!Dml_constr.Linear}) translates the affine fragment, and the solver's
    purification pass ({!Dml_solver.Purify}) rewrites the other operators
    into it. *)

type iexp =
  | Ivar of Ivar.t
  | Iconst of int
  | Iadd of iexp * iexp
  | Isub of iexp * iexp
  | Ineg of iexp
  | Imul of iexp * iexp
  | Idiv of iexp * iexp
  | Imod of iexp * iexp
  | Imin of iexp * iexp
  | Imax of iexp * iexp
  | Iabs of iexp
  | Isgn of iexp

type rel = Rlt | Rle | Req | Rne | Rge | Rgt

type bexp =
  | Bvar of Ivar.t
  | Bconst of bool
  | Bcmp of rel * iexp * iexp
  | Bnot of bexp
  | Band of bexp * bexp
  | Bor of bexp * bexp

type sort = Sint | Sbool | Ssubset of Ivar.t * sort * bexp

(** {1 Smart constructors} *)

val ivar : Ivar.t -> iexp
val iconst : int -> iexp

val iadd : iexp -> iexp -> iexp
(** Constant-folds when both sides are constants and the exact result fits
    in an [int] (otherwise the node stays unfolded); [e+0 = e]. *)

val isub : iexp -> iexp -> iexp
(** Folds constants like {!iadd}; [e-0 = e]. *)

val imul : iexp -> iexp -> iexp
(** Folds constants like {!iadd}; [1*e = e] and [0*e = 0]. *)

val band : bexp -> bexp -> bexp
val bor : bexp -> bexp -> bexp
val bnot : bexp -> bexp
val cmp : rel -> iexp -> iexp -> bexp
val conj : bexp list -> bexp

val nat : sort
(** The subset sort [{a : int | a >= 0}]. *)

(** {1 Structure} *)

val base_sort : sort -> sort
(** Strips subset refinements down to [Sint] or [Sbool]. *)

val sort_refinement : Ivar.t -> sort -> bexp
(** [sort_refinement a g] is the boolean constraint membership of [a] in [g]
    implies; [Bconst true] for the base sorts. *)

val fv_iexp : iexp -> Ivar.Set.t
val fv_bexp : bexp -> Ivar.Set.t

val subst_iexp : iexp Ivar.Map.t -> iexp -> iexp
val subst_bexp : iexp Ivar.Map.t -> bexp -> bexp
(** Substitution of integer index expressions for integer index variables.
    Boolean index variables are never the target of substitution here. *)

val subst_bvar : bexp Ivar.Map.t -> bexp -> bexp
(** Substitution of boolean index expressions for boolean index variables
    ([Bvar] occurrences). *)

val equal_iexp : iexp -> iexp -> bool
val equal_bexp : bexp -> bexp -> bool

(** {1 Evaluation} *)

type value = Vint of Dml_numeric.Bigint.t | Vbool of bool

val eval_iexp : value Ivar.Map.t -> iexp -> Dml_numeric.Bigint.t
(** Exact integer semantics (nothing wraps): [div]/[mod] follow floor
    division as in the paper's constraint interpretation.
    @raise Not_found on an unbound variable.
    @raise Division_by_zero accordingly. *)

val eval_bexp : value Ivar.Map.t -> bexp -> bool

val holds : rel -> Dml_numeric.Bigint.t -> Dml_numeric.Bigint.t -> bool

(** {1 Printing} *)

val pp_iexp : Format.formatter -> iexp -> unit
val pp_bexp : Format.formatter -> bexp -> unit
val pp_sort : Format.formatter -> sort -> unit
val iexp_to_string : iexp -> string
val bexp_to_string : bexp -> string
val sort_to_string : sort -> string

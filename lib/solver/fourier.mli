(** Fourier--Motzkin variable elimination (Section 3.2).

    The procedure decides unsatisfiability of a conjunction of linear
    constraints.  It is sound for integers (an [Unsat] answer is definitive)
    and, with the integral tightening rule enabled, refutes the divisibility
    style constraints arising from the optimised byte-copy function that pure
    rational reasoning cannot.  A [Sat] answer means "not refuted": complete
    over the rationals, conservative over the integers. *)

open Dml_numeric
open Dml_index
open Dml_constr

type verdict = Unsat | Sat

type stats = {
  mutable eliminations : int;  (** variables eliminated *)
  mutable combinations : int;  (** upper/lower pairs combined *)
  mutable max_constraints : int;  (** high-water mark of the system size *)
  mutable max_coeff : Bigint.t;  (** largest absolute coefficient seen *)
}

val new_stats : unit -> stats

val check : ?stats:stats -> ?budget:Budget.t -> tighten:bool -> Linear.cstr list -> verdict
(** [check ~tighten cs] eliminates all variables from [cs].  Equalities with
    a unit-coefficient variable are removed first by Gaussian substitution;
    the remaining equalities are split into inequality pairs.  With
    [?budget], each upper/lower combination costs one fuel unit and each
    eliminated variable counts against the budget's elimination limit.
    @raise Budget.Exhausted when the budget runs out. *)

val integer_model : ?budget:Budget.t -> Linear.cstr list -> Bigint.t Ivar.Map.t option
(** Best-effort integer assignment satisfying the system, reconstructed by
    back-substitution through the tightened elimination order with
    floor-divided bound endpoints; used to produce counterexample hints in
    error messages.  [None] when the system is integrally unsat or the
    endpoint rounding misses the witness.
    @raise Budget.Exhausted when the budget runs out mid-walk: the caller
    must report a timeout, not "no counterexample". *)

val rational_model : ?budget:Budget.t -> Linear.cstr list -> Rat.t Ivar.Map.t option
(** Best-effort rational assignment satisfying the system.  Tries
    {!integer_model} first (an integer witness is the strongest hint); when
    that comes up empty — the tightened walk refuted a rationally-satisfiable
    system, or rounding lost the witness — falls back to an untightened
    elimination with exact rational bound arithmetic, so fractional-only
    witnesses (e.g. [2x = 1]) are found instead of silently dropped.
    [None] only when the system has no rational solution at all.
    @raise Budget.Exhausted when the budget runs out mid-walk. *)

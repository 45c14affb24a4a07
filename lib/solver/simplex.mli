(** Rational feasibility by two-phase dictionary simplex (Bland's rule).

    Baseline solver for the ablation benchmark: complete over the rationals
    but blind to integrality, so it cannot refute the divisibility
    constraints that the tightened Fourier--Motzkin procedure handles
    (e.g. those from the optimised byte-copy function). *)

open Dml_numeric
open Dml_index
open Dml_constr

type verdict = Unsat | Sat

val check : ?budget:Budget.t -> Linear.cstr list -> verdict
(** [Unsat] iff the constraint system has no rational solution.  With
    [?budget], every pivot charges fuel proportional to the dictionary size.
    @raise Budget.Exhausted when the budget runs out. *)

val model : Linear.cstr list -> Rat.t Ivar.Map.t option
(** A rational solution when one exists. *)

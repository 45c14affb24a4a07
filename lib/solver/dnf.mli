(** Negation normal form over purified boolean index formulas, and the lazy
    case-splitting search that refutes its disjuncts one at a time.

    The normal form uses only the literals
    - [i <= j] and [i = j] comparisons (strict and flipped relations are
      rewritten using integrality: [i < j] becomes [i + 1 <= j]),
    - positive and negative boolean index variables,
    - boolean constants.

    The disjuncts of a formula are those of its disjunctive normal form, in
    the order of the textbook expansion: [Or (x, y)] lists the disjuncts of
    [x] before those of [y], and [And (x, y)] pairs every disjunct of [x],
    in order, with every disjunct of [y], in order, concatenating their
    literals.  {!refute} walks them in exactly this order without ever
    building the list. *)

open Dml_index

type literal =
  | Lle of Idx.iexp * Idx.iexp  (** i <= j *)
  | Leq of Idx.iexp * Idx.iexp  (** i = j *)
  | Lbool of bool * Ivar.t  (** polarity, variable *)

type 'a nf = Lit of 'a | Const of bool | And of 'a nf * 'a nf | Or of 'a nf * 'a nf

val nnf : Idx.bexp -> literal nf

val map : ('a -> 'b) -> 'a nf -> 'b nf
(** Translate every literal, left to right. *)

exception Too_large

val max_disjuncts : int
(** Cap on the disjuncts {!refute} may decide; it raises {!Too_large}
    beyond it. *)

val refute :
  ?budget:Budget.t -> refuted:('a list -> bool) -> 'a nf -> 'a list option * int
(** [refute ~refuted f] decides whether every disjunct of [f] is refuted,
    where [refuted lits] says whether the conjunction [lits] is
    contradictory.  The answer is the eager expansion's when [refuted] is
    monotone (a refuted conjunction stays refuted under more literals);
    otherwise a refuted conjunction may also close disjuncts that
    [refuted] would leave open on their own.

    The search is depth first over the case splits (disjunctions) of [f],
    taken left to right in formula order.  It calls [refuted] on:
    - the {e conjunctive core} (the literals under no disjunction) first; a
      refuted core closes the whole search.  When the core is open, each
      disjunction under no other one is tried as the only split: if both of
      its sides contradict the core, the search closes;
    - at every later case split, the literals gathered on the path plus
      those still ahead under no disjunction; a refuted conjunction closes
      the whole subtree of disjuncts below it.  The attempt is skipped when
      no literal joined the path since the last open attempt;
    - every disjunct reached, with its literals in the order of the
      expansion above (again skipped when already known open).

    Returns [(None, n)] when every disjunct is refuted, and
    [(Some d, n)] with the first disjunct [d] in expansion order that
    [refuted] leaves open.  [n] counts the disjuncts decided: each disjunct
    reached, plus one for each refuted conjunction that closed a subtree.

    With [?budget], every search node charges one fuel unit, and the cap
    {!max_disjuncts} is checked as each disjunct is decided, before its
    literal list is built; the search holds only the current path.
    @raise Too_large when more than {!max_disjuncts} are decided.
    @raise Budget.Exhausted when the budget runs out first. *)

val pp_literal : Format.formatter -> literal -> unit

(** Closure-compiling evaluator — the one tree walker over the typed AST.

    Expressions are compiled once into OCaml closures with variable accesses
    resolved to list positions; running the program performs no AST traversal
    or name lookup.  Saturated applications of primitives compile to direct
    n-ary calls without tuple allocation (a real compiler's calling
    convention), which is what makes the cost of a bounds check visible in
    the run time.

    Uncounted, it is "platform B", standing in for the paper's
    MLWorks-on-SPARC measurements in Table 3.  Given counters, it is also
    the cost model of "platform A" (Table 2): see {!initial_fast}. *)

open Dml_lang
open Dml_mltype

type compiled_env

val initial_fast :
  Prims.mode -> ?counters:Prims.counters -> ?degraded:(Loc.t -> bool) -> unit -> compiled_env
(** Environment from {!Prims.fast_table} with direct primitive calls.

    [?counters] turns the compiled program into the Table 2 cost model.
    Wall-clock timing of a tree walker compresses the bounds-check share of
    the run time (the machinery around each access costs an order of
    magnitude more than the access itself, unlike the paper's native
    compilers where a check is a sizeable fraction of a loop iteration).
    So a counted run *accounts* rather than times: every evaluation step
    adds its virtual-cycle cost, at late-90s RISC granularity, to
    [counters.cycles], and every executed or eliminated check is counted.
    The cost model (virtual cycles):
    - variable access, literal, nullary constructor: 1
    - constructor application: 3; tuple: 2 + size
    - call of a function that is not a direct primitive call: 2
    - conditional, case, [andalso], [orelse], [handle]: 1
    - closure construction ([fn]): 3; [raise]: 2
    - [let], type annotation: 0
    - direct primitive call: 0 for the call (a native compiler inlines
      it), plus the primitive's own work, {!Prims.flat_cost} (array access
      2, arithmetic 1), charged by the primitive also when it is called
      as a first-class value
    - bounds/tag check: 2 ({!Prims.check_cost})
    - list-cell traversal in [nth]: 2 per step

    Without counters nothing is metered: the closures are exactly those a
    timed run measures.

    [?degraded] enables graceful degradation: a direct primitive call whose
    application node's location satisfies the predicate compiles to the
    *checked* implementation (it keeps its dynamic bound check), as does
    every first-class use of a primitive — only direct calls at proven sites
    use the unchecked [mode] table.  Pass
    [Dml_core.Pipeline.degraded_pred report] to keep checks at exactly the
    unproven obligation sites. *)

exception Match_failure_dml of string

val run_program : compiled_env -> Tast.tprogram -> compiled_env
val lookup : compiled_env -> string -> Value.t
(** @raise Value.Runtime_error when unbound. *)

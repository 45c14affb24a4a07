(** The server side of the worker pool: what [dmld] runs on the one
    {!Dml_par.Pool}.

    The pool does the process work — warm workers, deadlines, the
    crash/hang retry, respawn and reaping.  This module adds only what is
    specific to the server: the {!task} type and the documents it builds,
    the warm worker closure (each worker holds a lazily-built
    {!Dml_core.Session.t} whose verdict cache persists between tasks, plus
    one derived session per override fingerprint), admission shedding past
    [max_queue], and the [server.*] counters and [status] object. *)

open Dml_obs

type task =
  | T_check of { program : string; source : string }
  | T_batch of { programs : (string * string) list }

val check_doc : Dml_core.Session.t -> program:string -> string -> Json.t
(** The [dml-check/1] document for one source — the single builder used by
    pool workers and by the server's inline path, so [-j] responses are
    byte-identical to inline ones. *)

val batch_doc : Dml_core.Session.t -> (string * string) list -> Json.t
(** The [dml-batch/1] document for a named-program list, checked
    sequentially against the given session. *)

type t

val create : ?timeout_ms:int -> ?max_queue:int -> jobs:int -> Dml_core.Session.options -> t
(** A pool of [jobs] warm workers ([<= 0]: one per core) checking under
    [options] with the parallelism shape stripped.  [timeout_ms] is the
    per-attempt deadline ([None]: no deadline); [max_queue] (default 256)
    bounds admitted-but-unassigned jobs. *)

val pool : t -> (Dml_core.Session.options * task, Json.t) Dml_par.Pool.t
(** The underlying pool, for its read set, wake time, shape and shutdown. *)

val submit :
  t -> now:float -> options:Dml_core.Session.options -> task -> (int, [ `Overloaded ]) result
(** Admit a job and return its pool id, or shed it when every worker is
    busy and the queue is full. *)

val step :
  t -> now:float -> ready:Unix.file_descr list -> (int * Json.t Dml_par.Pool.outcome) list
(** {!Dml_par.Pool.step}, with the turn's fault counts added to the
    [server.*] counters. *)

val await : t -> int -> Json.t Dml_par.Pool.outcome
(** {!Dml_par.Pool.await}, with the fault counts added likewise. *)

val to_json : t -> Json.t
(** The [status] document's ["pool"] object: shape, occupancy and the
    fault counters ([retries]/[shed]/[workers_respawned]/[timeouts]/
    [worker_lost]). *)

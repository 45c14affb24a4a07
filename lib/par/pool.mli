(** The fork worker pool: the one place this code base forks, behind both
    [dmlc batch -j]/[table* -j] ({!run}) and the [dmld] dispatcher.

    Each worker is a child process that inherited the worker function by
    [fork], so only tasks and results cross the pipes, as {!Frame}s.  The
    core is step-driven and transport-free: {!submit} tasks, select on
    {!fds} until {!next_wake}, then {!step} with the readable pipes — or let
    {!await} run that loop.

    One failure policy.  A worker that raises yields [Error (Exception _)]
    and keeps serving (deterministic, so never retried).  A worker that dies
    or outlives the per-attempt deadline (the parent SIGKILLs it) earns the
    task one retry on a fresh worker after 50 ms; a second failure is the
    outcome, [Crashed] or [Timed_out].  Dead workers are respawned at once
    and reaped by per-pid [waitpid [WNOHANG]], stragglers on a zombie list.

    Each reply carries the worker's {!Dml_obs.Metrics.export} for its task
    (absorbed into the parent registry) and, when the parent was tracing at
    fork time, the task's spans (adopted at the parent's position). *)

type error =
  | Exception of string  (** the worker function raised; payload is the exception text *)
  | Crashed of string  (** the worker died on both attempts; payload describes its fate *)
  | Timed_out of float  (** both attempts hung; payload is seconds since submission *)

type 'r outcome = ('r, error) result

val error_to_string : error -> string

val cpu_count : unit -> int
(** Available cores as the runtime sees them (the [-j 0] width). *)

type ('task, 'result) t

val create :
  jobs:int -> ?timeout_ms:int -> worker:('task -> 'result) -> unit -> ('task, 'result) t
(** Fork [jobs] workers ([<= 0]: one per core) with an optional per-attempt
    deadline.  Tasks and results must be marshallable plain data; the
    worker's mutations of global state stay in the child. *)

val submit : ('task, _) t -> now:float -> 'task -> int
(** Queue a task, starting it at once on an idle worker; returns its id. *)

val step : (_, 'result) t -> now:float -> ready:Unix.file_descr list -> (int * 'result outcome) list
(** Reap, read replies from the [ready] pipes, enforce deadlines, refill
    idle workers; returns the tasks that finished.  [ready = []] drives
    deadlines and retries alone. *)

val fds : _ t -> Unix.file_descr list
(** Reply pipes of the live workers (an idle worker's EOF is an idle crash). *)

val next_wake : _ t -> float option
(** When {!step} must run without pipe activity: a deadline or a retry. *)

val await : (_, 'result) t -> int -> 'result outcome
(** Step until task [id] finishes.  Other tasks finishing meanwhile are
    kept for the next {!step} or {!await}. *)

val shutdown : _ t -> unit
(** Close task pipes (idle workers exit on EOF), SIGKILL busy workers and
    reap everything, blocking. *)

val workers : _ t -> int
val timeout_ms : _ t -> int option
val in_flight : _ t -> int
val queued : _ t -> int

type counts = {
  dispatched : int;  (** task frames written to a worker, retries included *)
  retries : int;
  respawned : int;
  timeouts : int;  (** tasks resolved to [Timed_out] *)
  lost : int;  (** tasks resolved to [Crashed] *)
}

val counts : _ t -> counts

val run :
  ?jobs:int ->
  ?task_timeout_ms:int ->
  worker:('task -> 'result) ->
  'task list ->
  'result outcome list
(** One outcome per task, in task order, from [min jobs (length tasks)]
    workers ([jobs] defaults to, and [<= 0] means, one per core).  Even
    [jobs = 1] forks, so crash isolation and marshalling constraints are
    the same at every [-j] — what the sequential-vs-parallel oracle tests
    rely on.  [task_timeout_ms] is the per-attempt deadline. *)

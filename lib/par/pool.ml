module Metrics = Dml_obs.Metrics
module Trace = Dml_obs.Trace
module Clock = Dml_obs.Clock

type error = Exception of string | Crashed of string | Timed_out of float
type 'r outcome = ('r, error) result

let error_to_string = function
  | Exception msg -> "worker exception: " ^ msg
  | Crashed msg -> "worker crashed: " ^ msg
  | Timed_out s -> Printf.sprintf "task timed out after %.1fs" s

let cpu_count () = Domain.recommended_domain_count ()
let resolve_jobs jobs = if jobs <= 0 then cpu_count () else jobs

(* One reply per task.  Alongside the value it carries the worker's
   observability for that task: the metrics delta (the worker resets its
   registry between tasks, so the export is exactly this task's work) and
   the completed trace spans recorded under the worker's private sink. *)
type 'r reply = {
  rep_value : ('r, string) result;
  rep_metrics : Metrics.export;
  rep_spans : Trace.span list;
}

let describe_status = function
  | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let flush_std () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

(* ------------------------------------------------------------------ *)
(* Worker (child process)                                              *)
(* ------------------------------------------------------------------ *)

(* The child keeps the parent's tracing *decision* but never its sink: spans
   are recorded under a fresh per-task sink and shipped back as data, so the
   parent's trace stays well-formed and each task's spans land exactly once. *)
let worker_main f task_fd reply_fd =
  let tracing = Trace.enabled () in
  Trace.set_sink None;
  Metrics.reset ();
  let rec loop () =
    match Frame.read task_fd with
    | Error `Eof -> Unix._exit 0 (* parent closed the task pipe: shutdown *)
    | Error (`Error _) -> Unix._exit 1
    | Ok task ->
        let sink = if tracing then Some (Trace.create_sink ()) else None in
        Trace.set_sink sink;
        let value = try Ok (f task) with e -> Error (Printexc.to_string e) in
        Trace.set_sink None;
        let spans = match sink with Some sk -> Trace.roots sk | None -> [] in
        let reply = { rep_value = value; rep_metrics = Metrics.export (); rep_spans = spans } in
        Metrics.reset ();
        (try Frame.write reply_fd reply
         with e -> (
           (* an unmarshallable result (a worker function returning closures
              violates the Pool contract) degrades to a per-task error; a
              failure on the fallback means the parent is gone *)
           let fallback =
             {
               rep_value = Error ("reply marshalling failed: " ^ Printexc.to_string e);
               rep_metrics = Metrics.export ();
               rep_spans = [];
             }
           in
           try Frame.write reply_fd fallback with _ -> Unix._exit 2));
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Parent                                                              *)
(* ------------------------------------------------------------------ *)

type 'task job = {
  j_id : int;
  j_task : 'task;
  j_submitted : float;
  mutable j_attempts : int;  (** failed attempts so far *)
  mutable j_not_before : float;  (** retry backoff gate *)
}

type 'task wstate = {
  w_pid : int;
  w_to : Unix.file_descr;  (* parent writes task frames *)
  w_from : Unix.file_descr;  (* parent reads reply frames *)
  mutable w_job : 'task job option;
  mutable w_deadline : float option;
  mutable w_alive : bool;
}

type counts = { dispatched : int; retries : int; respawned : int; timeouts : int; lost : int }

type ('task, 'result) t = {
  p_worker : 'task -> 'result;
  p_timeout_ms : int option;
  p_workers : 'task wstate array;
  p_fresh : 'task job Queue.t;  (** submitted, never attempted *)
  mutable p_retry : 'task job list;  (** bounced off a dead or hung worker, run next *)
  mutable p_next_id : int;
  mutable p_zombies : int list;  (** killed or exited pids not yet reaped *)
  mutable p_finished : (int * 'result outcome) list;
      (** finished but not yet handed out, newest first *)
  mutable p_counts : counts;
}

let retry_backoff_s = 0.05

let workers t = Array.length t.p_workers
let timeout_ms t = t.p_timeout_ms
let counts t = t.p_counts

let in_flight t =
  Array.fold_left (fun n w -> if w.w_alive && w.w_job <> None then n + 1 else n) 0 t.p_workers

let queued t = Queue.length t.p_fresh + List.length t.p_retry

let fds t =
  Array.to_list t.p_workers |> List.filter_map (fun w -> if w.w_alive then Some w.w_from else None)

let spawn t =
  (* fds the parent holds for other workers: a child must close its copies,
     or the parent's close-for-EOF shutdown never reaches those workers *)
  let inherited =
    Array.to_list t.p_workers
    |> List.concat_map (fun w -> if w.w_alive then [ w.w_to; w.w_from ] else [])
  in
  let tr, tw = Unix.pipe () in
  let rr, rw = Unix.pipe () in
  flush_std ();
  match Unix.fork () with
  | 0 ->
      List.iter close_quiet inherited;
      close_quiet tw;
      close_quiet rr;
      (try worker_main t.p_worker tr rw with _ -> ());
      Unix._exit 1
  | pid ->
      close_quiet tr;
      close_quiet rw;
      { w_pid = pid; w_to = tw; w_from = rr; w_job = None; w_deadline = None; w_alive = true }

let create ~jobs ?timeout_ms ~worker () =
  (* a dead placeholder, so [spawn] sees no live siblings yet *)
  let vacant =
    { w_pid = 0; w_to = Unix.stdin; w_from = Unix.stdin; w_job = None; w_deadline = None; w_alive = false }
  in
  let t =
    {
      p_worker = worker;
      p_timeout_ms = timeout_ms;
      p_workers = Array.make (resolve_jobs jobs) vacant;
      p_fresh = Queue.create ();
      p_retry = [];
      p_next_id = 0;
      p_zombies = [];
      p_finished = [];
      p_counts = { dispatched = 0; retries = 0; respawned = 0; timeouts = 0; lost = 0 };
    }
  in
  Array.iteri (fun i _ -> t.p_workers.(i) <- spawn t) t.p_workers;
  t

(* SIGCHLD-safe reaping: always [WNOHANG] against the specific pid — never
   a wait for any child, which could steal the exit status of another
   pool's workers in the same process — with unfinished pids parked on the
   zombie list and retried every step. *)
let reap_zombies t =
  t.p_zombies <-
    List.filter
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> true
        | _ -> false
        | exception Unix.Unix_error _ -> false)
      t.p_zombies

(* Retire a worker and fork its replacement.  [kill] reclaims a hung one;
   the returned text describes how the old process ended. *)
let replace t idx ~kill =
  let w = t.p_workers.(idx) in
  w.w_alive <- false;
  close_quiet w.w_to;
  close_quiet w.w_from;
  if kill then (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
  t.p_counts <- { t.p_counts with respawned = t.p_counts.respawned + 1 };
  t.p_workers.(idx) <- spawn t;
  match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
  | 0, _ ->
      t.p_zombies <- w.w_pid :: t.p_zombies;
      "crashed"
  | _, status -> describe_status status
  | exception Unix.Unix_error _ -> "crashed"

let finish t id outcome = t.p_finished <- (id, outcome) :: t.p_finished

(* A write to a dead worker must surface as EPIPE, not kill the parent. *)
let send fd v =
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) (fun () -> Frame.write fd v)

(* Feed idle workers: backed-off retries first once their gate opens, then
   fresh tasks.  A write that fails means the worker died while idle: the
   task never reached it, so it is not an attempt — requeue it without
   penalty and respawn. *)
let rec assign t now =
  let take () =
    match t.p_retry with
    | j :: rest when j.j_not_before <= now ->
        t.p_retry <- rest;
        Some j
    | _ -> Queue.take_opt t.p_fresh
  in
  let progressed = ref false in
  Array.iteri
    (fun idx w ->
      if w.w_alive && w.w_job = None then
        Option.iter
          (fun j ->
            match send w.w_to j.j_task with
            | () ->
                t.p_counts <- { t.p_counts with dispatched = t.p_counts.dispatched + 1 };
                w.w_job <- Some j;
                w.w_deadline <-
                  Option.map (fun ms -> now +. (float_of_int ms /. 1000.)) t.p_timeout_ms
            | exception Unix.Unix_error _ ->
                t.p_retry <- j :: t.p_retry;
                ignore (replace t idx ~kill:false);
                progressed := true)
          (take ()))
    t.p_workers;
  if !progressed then assign t now

(* A failed attempt: the worker is replaced, and its task's first crash or
   hang earns one retry after a short backoff (behind other bounced tasks,
   ahead of fresh ones); the second is the task's outcome. *)
let fail t now idx kind =
  let job = t.p_workers.(idx).w_job in
  let status = replace t idx ~kill:(kind = `Hang) in
  Option.iter
    (fun j ->
      j.j_attempts <- j.j_attempts + 1;
      if j.j_attempts = 1 then begin
        t.p_counts <- { t.p_counts with retries = t.p_counts.retries + 1 };
        j.j_not_before <- now +. retry_backoff_s;
        t.p_retry <- t.p_retry @ [ j ]
      end
      else if kind = `Hang then begin
        t.p_counts <- { t.p_counts with timeouts = t.p_counts.timeouts + 1 };
        finish t j.j_id (Error (Timed_out (now -. j.j_submitted)))
      end
      else begin
        t.p_counts <- { t.p_counts with lost = t.p_counts.lost + 1 };
        finish t j.j_id (Error (Crashed status))
      end)
    job

(* One turn; finished tasks accumulate in [p_finished]. *)
let turn t ~now ~ready =
  reap_zombies t;
  Array.iteri
    (fun idx w ->
      if w.w_alive && List.memq w.w_from ready then
        match (Frame.read w.w_from : ('r reply, _) result) with
        | Ok reply ->
            Metrics.absorb reply.rep_metrics;
            List.iter Trace.adopt reply.rep_spans;
            (* a reply with no task means a confused worker: drop it *)
            Option.iter
              (fun j ->
                w.w_job <- None;
                w.w_deadline <- None;
                finish t j.j_id
                  (match reply.rep_value with Ok v -> Ok v | Error msg -> Error (Exception msg)))
              w.w_job
        | Error (`Eof | `Error _) -> fail t now idx `Crash)
    t.p_workers;
  (* the watchdog: a worker past its deadline is hung or thrashing; only
     SIGKILL is guaranteed to reclaim it *)
  Array.iteri
    (fun idx w ->
      match w.w_deadline with
      | Some d when w.w_alive && w.w_job <> None && now >= d -> fail t now idx `Hang
      | _ -> ())
    t.p_workers;
  assign t now

let step t ~now ~ready =
  turn t ~now ~ready;
  let finished = List.rev t.p_finished in
  t.p_finished <- [];
  finished

let next_wake t =
  let deadlines =
    Array.to_list t.p_workers
    |> List.filter_map (fun w -> if w.w_alive && w.w_job <> None then w.w_deadline else None)
  in
  (* a backed-off retry only needs a wake when a worker is free to take it;
     otherwise the next reply is the wake *)
  let gates =
    if in_flight t < workers t then List.map (fun j -> j.j_not_before) t.p_retry else []
  in
  match deadlines @ gates with [] -> None | x :: rest -> Some (List.fold_left Float.min x rest)

let submit t ~now task =
  let j = { j_id = t.p_next_id; j_task = task; j_submitted = now; j_attempts = 0; j_not_before = now } in
  t.p_next_id <- t.p_next_id + 1;
  Queue.add j t.p_fresh;
  assign t now;
  j.j_id

let rec await t id =
  match List.assoc_opt id t.p_finished with
  | Some outcome ->
      t.p_finished <- List.remove_assoc id t.p_finished;
      outcome
  | None ->
      let timeout =
        match next_wake t with None -> -1. | Some at -> Float.max 0. (at -. Clock.now ())
      in
      let ready =
        match Unix.select (fds t) [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      turn t ~now:(Clock.now ()) ~ready;
      await t id

let shutdown t =
  Array.iter
    (fun w ->
      if w.w_alive then begin
        close_quiet w.w_to;
        (* an idle worker exits on EOF; one mid-task gets the axe *)
        if w.w_job <> None then (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
        close_quiet w.w_from;
        w.w_alive <- false
      end)
    t.p_workers;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) t.p_zombies;
  t.p_zombies <- []

let run ?(jobs = 0) ?task_timeout_ms ~worker tasks =
  if tasks = [] then []
  else
    let jobs = min (resolve_jobs jobs) (List.length tasks) in
    let t = create ~jobs ?timeout_ms:task_timeout_ms ~worker () in
    Fun.protect
      ~finally:(fun () -> shutdown t)
      (fun () ->
        let now = Clock.now () in
        let ids = List.map (submit t ~now) tasks in
        List.map (await t) ids)

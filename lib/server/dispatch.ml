open Dml_obs
module Session = Dml_core.Session
module Pipeline = Dml_core.Pipeline
module Report_json = Dml_core.Report_json
module Runner = Dml_par.Runner
module Pool = Dml_par.Pool

(* process-wide fault/robustness counters, mirrored into the metrics
   registry so the server's [metrics]/[status] ops report them *)
let m_retries = Metrics.counter "server.retries"
let m_shed = Metrics.counter "server.shed"
let m_respawned = Metrics.counter "server.workers_respawned"
let m_timeouts = Metrics.counter "server.timeouts"
let m_worker_lost = Metrics.counter "server.worker_lost"
let m_dispatched = Metrics.counter "server.dispatched"

(* ------------------------------------------------------------------ *)
(* Tasks and result documents                                          *)
(* ------------------------------------------------------------------ *)

type task =
  | T_check of { program : string; source : string }
  | T_batch of { programs : (string * string) list }

(* the program name fault injection is keyed by ([DML_PAR_TEST_*]) *)
let task_label = function
  | T_check { program; _ } -> program
  | T_batch { programs; _ } -> ( match programs with (n, _) :: _ -> n | [] -> "-")

(* The same document builders whether a task runs on a pool worker or
   inline in the parent: this is what keeps a [-j] server's check documents
   byte-identical to single-shot [dmlc check --json]. *)
let check_doc session ~program source =
  if (Session.options session).Session.op_infer then (
    (* dml-check/2: same document plus the ["inferred"] solution trace —
       the schema only moves when the session opted into inference, so
       every pre-existing consumer keeps seeing byte-identical /1 docs *)
    match Dml_infer.Engine.check_s session source with
    | Ok oc ->
        Report_json.of_report ~schema:"dml-check/2" ~program
          ~extra:[ ("inferred", Dml_infer.Engine.infer_json ~program oc) ]
          oc.Dml_infer.Engine.oc_report
    | Error f -> Report_json.of_failure ~schema:"dml-check/2" ~program f)
  else
    match Pipeline.check_s session source with
    | Ok rp -> Report_json.of_report ~program rp
    | Error f -> Report_json.of_failure ~program f

let batch_doc session programs =
  let rows =
    List.map
      (fun (name, src) ->
        {
          Runner.row_name = name;
          row_result = Runner.check_one session { Runner.tg_name = name; tg_source = Ok src };
        })
      programs
  in
  Runner.batch_json
    ?schema:(if (Session.options session).Session.op_infer then Some "dml-batch/2" else None)
    ~passes:[ rows ] ()

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  d_pool : (Session.options * task, Json.t) Pool.t;
  d_max_queue : int;
  mutable d_shed : int;
  mutable d_seen : Pool.counts;  (** pool counts already added to the counters *)
}

(* A warm worker: the base session (shared verdict cache, built lazily
   after the fork) plus derived sessions per override fingerprint, all
   sharing the base cache object — the same soundness argument as the
   server's own [with_options] path. *)
let create ?timeout_ms ?(max_queue = 256) ~jobs (options : Session.options) =
  let base_options = Runner.worker_options options in
  let base = lazy (Session.create ~options:base_options ()) in
  let base_fp = Session.fingerprint base_options in
  let derived : (string, Session.t) Hashtbl.t = Hashtbl.create 4 in
  let session_for opts =
    let fp = Session.fingerprint opts in
    if fp = base_fp then Lazy.force base
    else
      match Hashtbl.find_opt derived fp with
      | Some s -> s
      | None ->
          let s = Session.with_options (Lazy.force base) opts in
          Hashtbl.replace derived fp s;
          s
  in
  let worker (opts, task) =
    Runner.test_injection (task_label task);
    let session = session_for opts in
    match task with
    | T_check { program; source } -> check_doc session ~program source
    | T_batch { programs } -> batch_doc session programs
  in
  let pool = Pool.create ~jobs ?timeout_ms ~worker () in
  { d_pool = pool; d_max_queue = max 0 max_queue; d_shed = 0; d_seen = Pool.counts pool }

let pool t = t.d_pool

(* add what the pool counted since the last look to the [server.*]
   counters *)
let mirror_counts t =
  let now = Pool.counts t.d_pool and seen = t.d_seen in
  Metrics.incr ~by:(now.Pool.dispatched - seen.Pool.dispatched) m_dispatched;
  Metrics.incr ~by:(now.Pool.retries - seen.Pool.retries) m_retries;
  Metrics.incr ~by:(now.Pool.respawned - seen.Pool.respawned) m_respawned;
  Metrics.incr ~by:(now.Pool.timeouts - seen.Pool.timeouts) m_timeouts;
  Metrics.incr ~by:(now.Pool.lost - seen.Pool.lost) m_worker_lost;
  t.d_seen <- now

(* Admission: run now if a worker is idle, queue if there is room, shed
   with an explicit [`Overloaded] otherwise — bounded latency, not
   unbounded queueing.  The parallelism shape is stripped here too, so a
   no-override request fingerprints equal to the workers' base and reuses
   their warm session instead of deriving one. *)
let submit t ~now ~options task =
  let p = t.d_pool in
  if Pool.queued p >= t.d_max_queue && Pool.in_flight p >= Pool.workers p then begin
    t.d_shed <- t.d_shed + 1;
    Metrics.incr m_shed;
    Error `Overloaded
  end
  else begin
    let id = Pool.submit p ~now (Runner.worker_options options, task) in
    mirror_counts t;
    Ok id
  end

let step t ~now ~ready =
  let finished = Pool.step t.d_pool ~now ~ready in
  mirror_counts t;
  finished

let await t id =
  let outcome = Pool.await t.d_pool id in
  mirror_counts t;
  outcome

let to_json t =
  let p = t.d_pool in
  let c = Pool.counts p in
  Json.Obj
    [
      ("workers", Json.Int (Pool.workers p));
      ("in_flight", Json.Int (Pool.in_flight p));
      ("queued", Json.Int (Pool.queued p));
      ("max_queue", Json.Int t.d_max_queue);
      ( "request_timeout_ms",
        match Pool.timeout_ms p with None -> Json.Null | Some ms -> Json.Int ms );
      ( "faults",
        Json.Obj
          [
            ("retries", Json.Int c.Pool.retries);
            ("shed", Json.Int t.d_shed);
            ("workers_respawned", Json.Int c.Pool.respawned);
            ("timeouts", Json.Int c.Pool.timeouts);
            ("worker_lost", Json.Int c.Pool.lost);
          ] );
    ]

open Dml_obs
module Session = Dml_core.Session
module Pipeline = Dml_core.Pipeline
module Report_json = Dml_core.Report_json
module Runner = Dml_par.Runner
module Pool = Dml_par.Pool
module Cache = Dml_cache.Cache

let ops = [ "check"; "batch"; "status"; "metrics"; "shutdown" ]

(* The warm state behind [check_patch] ([--incremental] servers only).
   Both tables are segregated by options fingerprint, mirroring the unit
   store's own keying: a base options change (or per-request override)
   never reuses verdicts across option sets that check differently. *)
type incr_store = {
  i_states : (string, Dml_core.Incr.state) Hashtbl.t;
      (** options fingerprint -> per-declaration verdict store *)
  i_sources : (string, int) Hashtbl.t;
      (** fingerprint × source id -> unit count of a successfully checked
          source: the registry [base] ids are validated against, and the
          unit count behind a memo hit's [incr] object *)
}

type t = {
  t_session : Session.t;
  t_memo : (string, Json.t) Hashtbl.t;
      (** memo key ({!Session.memo_key} × program name) -> stored result
          document, returned verbatim on a hit *)
  mutable t_memo_hits : int;
  t_requests : (string, int ref) Hashtbl.t;
  t_started : float;
  mutable t_stop : bool;
  t_dispatch : Dispatch.t option;
      (** the warm worker pool, when the server was created with jobs *)
  t_incr : incr_store option;
      (** [Some] exactly when the server options set [op_incremental] *)
}

let default_request_timeout_ms = 30_000

let create ?(options = Session.default_options) ?(request_timeout_ms = default_request_timeout_ms)
    ?max_queue () =
  let t_requests = Hashtbl.create 8 in
  List.iter (fun op -> Hashtbl.replace t_requests op (ref 0)) ops;
  let t_dispatch =
    match options.Session.op_jobs with
    | None -> None
    | Some jobs ->
        let timeout_ms = if request_timeout_ms <= 0 then None else Some request_timeout_ms in
        Some (Dispatch.create ?timeout_ms ?max_queue ~jobs options)
  in
  {
    t_session = Session.create ~options ();
    t_memo = Hashtbl.create 64;
    t_memo_hits = 0;
    t_requests;
    t_started = Clock.now ();
    t_stop = false;
    t_dispatch;
    t_incr =
      (if options.Session.op_incremental then
         Some { i_states = Hashtbl.create 4; i_sources = Hashtbl.create 64 }
       else None);
  }

let session t = t.t_session
let stopping t = t.t_stop
let pooled t = t.t_dispatch <> None

let count_request t op =
  match Hashtbl.find_opt t.t_requests op with
  | Some r -> incr r
  | None -> Hashtbl.replace t.t_requests op (ref 1)

(* The derived session for one request: base options plus the request's
   overrides, sharing the server's warm cache (sound — verdicts are keyed
   by method and budget tier). *)
let request_session t = function
  | None -> Ok (Session.options t.t_session, t.t_session)
  | Some overrides ->
      Result.map
        (fun opts -> (opts, Session.with_options t.t_session opts))
        (Protocol.apply_overrides (Session.options t.t_session) overrides)

let memo_key_of opts ~program source =
  Session.memo_key opts source ^ ":" ^ Digest.to_hex (Digest.string program)

let memo_store t key doc = Hashtbl.replace t.t_memo key doc

(* The structured verdicts a failed dispatch degrades to: a well-formed
   error document on the wire, never a dropped connection. *)
let response_of_outcome d ~id ~op = function
  | Ok doc -> Protocol.ok_response ~id ~op doc
  | Error (Pool.Exception msg) ->
      Protocol.error_response ~id ~code:"internal" ("worker exception: " ^ msg)
  | Error (Pool.Timed_out elapsed) ->
      Protocol.error_response ~id ~code:"timeout"
        (Printf.sprintf
           "request exceeded its %s deadline twice (%.2fs since submission; the worker was \
            killed and the request retried once)"
           (match Pool.timeout_ms (Dispatch.pool d) with
           | Some ms -> Printf.sprintf "%dms" ms
           | None -> "")
           elapsed)
  | Error (Pool.Crashed status) ->
      Protocol.error_response ~id ~code:"worker-lost"
        (Printf.sprintf
           "worker %s; the retry worker was lost too — the server is healthy, retry against \
            fresh state or report a checker bug"
           status)

let overloaded_response ~id d =
  Protocol.error_response ~id ~code:"overloaded"
    (Printf.sprintf
       "server at capacity (%d workers busy, %d requests queued); retry after backoff"
       (Pool.workers (Dispatch.pool d))
       (Pool.queued (Dispatch.pool d)))

(* Drive one dispatched job to completion (the stdio serve loop and the
   transport-free [handle] path: one client, so blocking on the pool is the
   protocol's request/response order anyway).  Deadlines, retries and
   respawns still apply — this is what gives a --stdio server crash and
   hang isolation. *)
let dispatch_sync d ~options task =
  Result.to_option (Dispatch.submit d ~now:(Clock.now ()) ~options task)
  |> Option.map (Dispatch.await d)

let do_check t ~id ~program ~source ~options =
  match request_session t options with
  | Error e -> Protocol.error_response ~id ~code:"bad-request" e
  | Ok (opts, session) -> (
      let program = Option.value program ~default:"-" in
      (* the program name is part of the stored document, so it joins the
         semantic key (source digest × options fingerprint) *)
      let key = memo_key_of opts ~program source in
      match Hashtbl.find_opt t.t_memo key with
      | Some doc ->
          t.t_memo_hits <- t.t_memo_hits + 1;
          Protocol.ok_response ~id ~op:"check" ~memo:true doc
      | None -> (
          match t.t_dispatch with
          | None ->
              let doc = Dispatch.check_doc session ~program source in
              memo_store t key doc;
              Protocol.ok_response ~id ~op:"check" doc
          | Some d -> (
              match dispatch_sync d ~options:opts (Dispatch.T_check { program; source }) with
              | None -> overloaded_response ~id d
              | Some (Ok doc) ->
                  memo_store t key doc;
                  Protocol.ok_response ~id ~op:"check" doc
              | Some outcome -> response_of_outcome d ~id ~op:"check" outcome)))

let incr_json ~source_id ~units ~dirty ~reused ~solver_calls =
  Json.Obj
    [
      ("units", Json.Int units);
      ("dirty", Json.Int dirty);
      ("reused", Json.Int reused);
      ("solver_calls", Json.Int solver_calls);
      ("source_id", Json.String source_id);
    ]

(* Incremental recheck.  Always computed in the parent process — even under
   a worker pool — because the parent owns the per-declaration verdict
   store; the work a worker would do is exactly what the store lets us
   skip.  The memo is shared with plain [check] (same key shape), so
   patching back to an already-checked source returns the stored document
   verbatim, byte-for-byte. *)
let do_check_patch t ~id ~program ~source ~base ~options =
  match t.t_incr with
  | None ->
      Protocol.error_response ~id ~code:"bad-request"
        "check_patch requires a server started with --incremental"
  | Some inc -> (
      match request_session t options with
      | Error e -> Protocol.error_response ~id ~code:"bad-request" e
      | Ok (opts, session) ->
          if opts.Session.op_infer then
            Protocol.error_response ~id ~code:"bad-request"
              "check_patch does not compose with infer (inference is whole-program)"
          else begin
            let program = Option.value program ~default:"-" in
            let fp = Session.fingerprint opts in
            let source_id = Digest.to_hex (Digest.string source) in
            let source_key sid = fp ^ ":" ^ sid in
            match base with
            | Some b when not (Hashtbl.mem inc.i_sources (source_key b)) ->
                Protocol.error_response ~id ~code:"unknown-base"
                  (Printf.sprintf
                     "base %S is not the source id of a successful check under these options" b)
            | _ -> (
                let key = memo_key_of opts ~program source in
                match
                  ( Hashtbl.find_opt t.t_memo key,
                    Hashtbl.find_opt inc.i_sources (source_key source_id) )
                with
                | Some doc, Some units ->
                    t.t_memo_hits <- t.t_memo_hits + 1;
                    Protocol.ok_response ~id ~op:"check_patch" ~memo:true
                      (Json.Obj
                         [
                           ("check", doc);
                           ( "incr",
                             incr_json ~source_id ~units ~dirty:0 ~reused:units ~solver_calls:0
                           );
                         ])
                | _ -> (
                    let state =
                      match Hashtbl.find_opt inc.i_states fp with
                      | Some st -> st
                      | None ->
                          let st = Dml_core.Incr.create () in
                          Hashtbl.replace inc.i_states fp st;
                          st
                    in
                    match Dml_core.Incr.check state session source with
                    | Ok (report, stats) ->
                        let doc = Report_json.of_report ~program report in
                        memo_store t key doc;
                        Hashtbl.replace inc.i_sources (source_key source_id)
                          stats.Dml_core.Incr.st_units;
                        Protocol.ok_response ~id ~op:"check_patch"
                          (Json.Obj
                             [
                               ("check", doc);
                               ( "incr",
                                 incr_json ~source_id ~units:stats.Dml_core.Incr.st_units
                                   ~dirty:stats.Dml_core.Incr.st_dirty
                                   ~reused:stats.Dml_core.Incr.st_reused
                                   ~solver_calls:stats.Dml_core.Incr.st_solver_calls );
                             ])
                    | Error f ->
                        (* a failed source is never registered: it cannot
                           serve as a base, and its memo slot stays empty *)
                        let doc = Report_json.of_failure ~program f in
                        Protocol.ok_response ~id ~op:"check_patch"
                          (Json.Obj
                             [
                               ("check", doc);
                               ( "incr",
                                 incr_json ~source_id ~units:0 ~dirty:0 ~reused:0
                                   ~solver_calls:0 );
                             ])))
          end)

let do_batch t ~id ~programs ~options =
  match request_session t options with
  | Error e -> Protocol.error_response ~id ~code:"bad-request" e
  | Ok (opts, session) -> (
      match t.t_dispatch with
      | None ->
          let doc =
            match (opts.Session.op_jobs, opts.Session.op_shard_obligations) with
            | None, false ->
                (* in-process, against the server's warm session cache *)
                Dispatch.batch_doc session programs
            | _ ->
                Runner.batch_json
                  ?schema:(if opts.Session.op_infer then Some "dml-batch/2" else None)
                  ~passes:
                    [
                      Runner.check_targets_s opts
                        (List.map
                           (fun (name, src) ->
                             { Runner.tg_name = name; Runner.tg_source = Ok src })
                           programs);
                    ]
                  ()
          in
          Protocol.ok_response ~id ~op:"batch" doc
      | Some d -> (
          match dispatch_sync d ~options:opts (Dispatch.T_batch { programs }) with
          | None -> overloaded_response ~id d
          | Some outcome -> response_of_outcome d ~id ~op:"batch" outcome))

let status_doc t =
  let requests =
    (* check_patch appears only on --incremental servers, so the status
       document of every pre-existing configuration keeps its exact bytes *)
    let visible_ops = ops @ match t.t_incr with Some _ -> [ "check_patch" ] | None -> [] in
    List.map
      (fun op ->
        (op, Json.Int (match Hashtbl.find_opt t.t_requests op with Some r -> !r | None -> 0)))
      visible_ops
  in
  Json.Obj
    ([
       ("server", Json.String "dmld");
       ("protocol", Json.String Protocol.version);
       ("pid", Json.Int (Unix.getpid ()));
       ("uptime_s", Json.Float (Clock.now () -. t.t_started));
       ("requests", Json.Obj requests);
       ( "memo",
         Json.Obj
           [
             ("entries", Json.Int (Hashtbl.length t.t_memo));
             ("hits", Json.Int t.t_memo_hits);
           ] );
       ( "cache",
         match Session.cache t.t_session with
         | None -> Json.Null
         | Some c -> Cache.snapshot_to_json (Cache.snapshot c) );
     ]
    @ (match t.t_dispatch with None -> [] | Some d -> [ ("pool", Dispatch.to_json d) ])
    @ [ ("options", Session.options_to_json (Session.options t.t_session)) ])

let handle t v =
  match Protocol.parse_request v with
  | Error e ->
      let id = Option.value (Json.member "id" v) ~default:Json.Null in
      Protocol.error_response ~id ~code:"bad-request" e
  | Ok { Protocol.id; req } -> (
      count_request t (Protocol.op_name req);
      match req with
      | Protocol.Check { program; source; options } -> do_check t ~id ~program ~source ~options
      | Protocol.Check_patch { program; source; base; options } ->
          do_check_patch t ~id ~program ~source ~base ~options
      | Protocol.Batch { programs; options } -> do_batch t ~id ~programs ~options
      | Protocol.Status -> Protocol.ok_response ~id ~op:"status" (status_doc t)
      | Protocol.Metrics -> Protocol.ok_response ~id ~op:"metrics" (Metrics.to_json ())
      | Protocol.Shutdown ->
          t.t_stop <- true;
          Protocol.ok_response ~id ~op:"shutdown" (Json.Obj [ ("stopping", Json.Bool true) ]))

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(* A write to a vanished peer must become an exception we can catch per
   connection, not a process-killing SIGPIPE. *)
let ignore_sigpipe () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let shutdown_pool t =
  match t.t_dispatch with None -> () | Some d -> Pool.shutdown (Dispatch.pool d)

let serve_stdio ?(input = Unix.stdin) ?(output = Unix.stdout) t =
  ignore_sigpipe ();
  let rec loop () =
    if not t.t_stop then
      match Protocol.recv ~max:Protocol.max_frame input with
      | Ok v ->
          Protocol.send output (handle t v);
          loop ()
      | Error `Eof -> ()
      | Error (`Bad_json msg) ->
          (* the frame was consumed whole; the stream is still in sync *)
          Protocol.send output (Protocol.error_response ~id:Json.Null ~code:"bad-json" msg);
          loop ()
      | Error (`Oversized n) ->
          Protocol.send output
            (Protocol.error_response ~id:Json.Null ~code:"oversized-frame"
               (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n Protocol.max_frame))
      | Error (`Error msg) ->
          Protocol.send output (Protocol.error_response ~id:Json.Null ~code:"bad-json" msg)
  in
  Fun.protect ~finally:(fun () -> shutdown_pool t) loop

(* ------------------------------------------------------------------ *)
(* The socket serve loop: a non-blocking multiplexer                   *)
(* ------------------------------------------------------------------ *)

(* Per-connection state.  Both directions are buffered: a half-received
   request frame from one client never blocks the loop (incremental
   assembly in [c_in]), and a half-sent response to a slow reader never
   blocks it either ([c_out]/[c_out_pos] carry the unwritten tail until the
   socket is writable again). *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_in : Buffer.t;
  mutable c_out : Bytes.t;
  mutable c_out_pos : int;
  mutable c_alive : bool;
  mutable c_close_after_flush : bool;
      (** an unresynchronizable framing error: answer, flush, close *)
}

let close_conn conn =
  conn.c_alive <- false;
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

let conn_has_output conn = Bytes.length conn.c_out - conn.c_out_pos > 0

(* Append one framed response to the connection's output buffer. *)
let enqueue_response conn v =
  if conn.c_alive then begin
    let payload = Json.to_string v in
    let n = String.length payload in
    let pending = Bytes.length conn.c_out - conn.c_out_pos in
    let next = Bytes.create (pending + Dml_par.Frame.header_len + n) in
    Bytes.blit conn.c_out conn.c_out_pos next 0 pending;
    Bytes.set_int64_be next pending (Int64.of_int n);
    Bytes.blit_string payload 0 next (pending + Dml_par.Frame.header_len) n;
    conn.c_out <- next;
    conn.c_out_pos <- 0
  end

(* Write as much buffered output as the socket accepts right now. *)
let flush_conn conn =
  let rec go () =
    let pending = Bytes.length conn.c_out - conn.c_out_pos in
    if pending > 0 && conn.c_alive then
      match Unix.write conn.c_fd conn.c_out conn.c_out_pos pending with
      | 0 -> ()
      | n ->
          conn.c_out_pos <- conn.c_out_pos + n;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> close_conn conn
  in
  go ();
  if not (conn_has_output conn) then begin
    conn.c_out <- Bytes.empty;
    conn.c_out_pos <- 0;
    if conn.c_close_after_flush then close_conn conn
  end

(* Pull every complete frame out of [conn.c_in]; [on_frame] is called per
   decoded payload.  A garbage length header poisons the stream — answer
   and mark the connection for close-after-flush. *)
let drain_frames conn ~on_frame =
  let rec go () =
    let len = Buffer.length conn.c_in in
    if len < Dml_par.Frame.header_len || conn.c_close_after_flush then ()
    else
      let header = Bytes.of_string (Buffer.sub conn.c_in 0 Dml_par.Frame.header_len) in
      let flen64 = Bytes.get_int64_be header 0 in
      if Int64.compare flen64 0L < 0 || Int64.compare flen64 (Int64.of_int Protocol.max_frame) > 0
      then begin
        enqueue_response conn
          (Protocol.error_response ~id:Json.Null ~code:"oversized-frame"
             (Printf.sprintf "frame of %Ld bytes exceeds the %d-byte limit" flen64
                Protocol.max_frame));
        conn.c_close_after_flush <- true
      end
      else
        let flen = Int64.to_int flen64 in
        if len < Dml_par.Frame.header_len + flen then ()
        else begin
          let payload = Buffer.sub conn.c_in Dml_par.Frame.header_len flen in
          let rest =
            Buffer.sub conn.c_in
              (Dml_par.Frame.header_len + flen)
              (len - Dml_par.Frame.header_len - flen)
          in
          Buffer.clear conn.c_in;
          Buffer.add_string conn.c_in rest;
          on_frame payload;
          go ()
        end
  in
  go ()

(* Non-blocking read into the connection's input buffer; [`Closed] on EOF
   or a hard error. *)
let read_chunk = Bytes.create 65536

let fill_conn conn =
  let rec go () =
    match Unix.read conn.c_fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> `Closed
    | n ->
        Buffer.add_subbytes conn.c_in read_chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `More
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> `Closed
  in
  go ()

(* An in-flight dispatched request: which clients wait on it ([p_waiters]
   grows past one when concurrent checks coalesce on the same memo key)
   and where to store the document on success. *)
type pending = {
  p_op : string;
  p_key : string option;
  mutable p_waiters : (int * Json.t) list;  (** connection id × envelope id *)
}

let serve_unix t ~path =
  ignore_sigpipe ();
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  Unix.set_nonblock listen_fd;
  let conns = ref [] in
  let next_conn_id = ref 0 in
  let find_conn cid = List.find_opt (fun c -> c.c_alive && c.c_id = cid) !conns in
  (* dispatched-job bookkeeping: job id -> pending, memo key -> job id *)
  let routes : (int, pending) Hashtbl.t = Hashtbl.create 32 in
  let inflight_keys : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let stop_deadline = ref infinity in
  let respond_to cid v =
    match find_conn cid with
    | Some conn ->
        enqueue_response conn v;
        flush_conn conn
    | None -> () (* the client went away; nothing to deliver *)
  in
  let complete d (job_id, outcome) =
    match Hashtbl.find_opt routes job_id with
    | None -> ()
    | Some p ->
        Hashtbl.remove routes job_id;
        (match p.p_key with
        | Some key ->
            Hashtbl.remove inflight_keys key;
            (match outcome with Ok doc -> memo_store t key doc | Error _ -> ())
        | None -> ());
        List.iter
          (fun (cid, id) -> respond_to cid (response_of_outcome d ~id ~op:p.p_op outcome))
          (List.rev p.p_waiters)
  in
  (* Handle one decoded request from [conn].  Simple ops answer
     immediately; with a worker pool, check/batch work is submitted and the
     response happens in [complete] — so one client's slow check never
     head-of-line-blocks another's. *)
  let handle_frame conn payload =
    let immediate v = enqueue_response conn v in
    match Json.of_string payload with
    | Error msg -> immediate (Protocol.error_response ~id:Json.Null ~code:"bad-json" msg)
    | Ok v -> (
        match t.t_dispatch with
        | None -> immediate (handle t v)
        | Some d -> (
            match Protocol.parse_request v with
            | Error e ->
                let id = Option.value (Json.member "id" v) ~default:Json.Null in
                immediate (Protocol.error_response ~id ~code:"bad-request" e)
            | Ok { Protocol.id; req } -> (
                count_request t (Protocol.op_name req);
                let submit ~op ~key ~options task =
                  match Dispatch.submit d ~now:(Clock.now ()) ~options task with
                  | Error `Overloaded -> immediate (overloaded_response ~id d)
                  | Ok job_id ->
                      Hashtbl.replace routes job_id
                        { p_op = op; p_key = key; p_waiters = [ (conn.c_id, id) ] };
                      Option.iter (fun k -> Hashtbl.replace inflight_keys k job_id) key
                in
                match req with
                | Protocol.Check { program; source; options } -> (
                    match request_session t options with
                    | Error e -> immediate (Protocol.error_response ~id ~code:"bad-request" e)
                    | Ok (opts, _) -> (
                        let program = Option.value program ~default:"-" in
                        let key = memo_key_of opts ~program source in
                        match Hashtbl.find_opt t.t_memo key with
                        | Some doc ->
                            t.t_memo_hits <- t.t_memo_hits + 1;
                            immediate (Protocol.ok_response ~id ~op:"check" ~memo:true doc)
                        | None -> (
                            match Hashtbl.find_opt inflight_keys key with
                            | Some job_id ->
                                (* coalesce: join the identical in-flight check *)
                                let p = Hashtbl.find routes job_id in
                                p.p_waiters <- (conn.c_id, id) :: p.p_waiters
                            | None ->
                                submit ~op:"check" ~key:(Some key) ~options:opts
                                  (Dispatch.T_check { program; source }))))
                | Protocol.Check_patch { program; source; base; options } ->
                    (* parent-computed even in pool mode: the parent owns
                       the unit store, and the dirty cone is the cheap part *)
                    immediate (do_check_patch t ~id ~program ~source ~base ~options)
                | Protocol.Batch { programs; options } -> (
                    match request_session t options with
                    | Error e -> immediate (Protocol.error_response ~id ~code:"bad-request" e)
                    | Ok (opts, _) ->
                        submit ~op:"batch" ~key:None ~options:opts
                          (Dispatch.T_batch { programs }))
                | Protocol.Status -> immediate (Protocol.ok_response ~id ~op:"status" (status_doc t))
                | Protocol.Metrics ->
                    immediate (Protocol.ok_response ~id ~op:"metrics" (Metrics.to_json ()))
                | Protocol.Shutdown ->
                    t.t_stop <- true;
                    immediate
                      (Protocol.ok_response ~id ~op:"shutdown"
                         (Json.Obj [ ("stopping", Json.Bool true) ])))))
  in
  let jobs_outstanding () = Hashtbl.length routes > 0 in
  let output_outstanding () = List.exists (fun c -> c.c_alive && conn_has_output c) !conns in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !conns;
      shutdown_pool t;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* Stop condition: a shutdown request stops accepting and reading,
         then the loop drains — in-flight jobs resolve (bounded by their
         deadlines) and buffered responses flush — under a grace cap. *)
      while
        (not t.t_stop)
        || ((jobs_outstanding () || output_outstanding ()) && Clock.now () < !stop_deadline)
      do
        if t.t_stop && !stop_deadline = infinity then stop_deadline := Clock.now () +. 10.;
        let worker_fds =
          match t.t_dispatch with Some d -> Pool.fds (Dispatch.pool d) | None -> []
        in
        let read_fds =
          (if t.t_stop then []
           else listen_fd :: List.filter_map (fun c -> if c.c_alive then Some c.c_fd else None) !conns)
          @ worker_fds
        in
        let write_fds =
          List.filter_map
            (fun c -> if c.c_alive && conn_has_output c then Some c.c_fd else None)
            !conns
        in
        let timeout =
          let cap = if t.t_stop then Some (!stop_deadline) else None in
          let wake =
            match t.t_dispatch with Some d -> Pool.next_wake (Dispatch.pool d) | None -> None
          in
          match (wake, cap) with
          | None, None -> -1.
          | Some a, None | None, Some a -> Float.max 0. (a -. Clock.now ())
          | Some a, Some b -> Float.max 0. (Float.min a b -. Clock.now ())
        in
        let readable, writable =
          match Unix.select read_fds write_fds [] timeout with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        (* new clients *)
        if (not t.t_stop) && List.memq listen_fd readable then begin
          let rec accept_all () =
            match Unix.accept listen_fd with
            | fd, _ ->
                Unix.set_nonblock fd;
                incr next_conn_id;
                conns :=
                  !conns
                  @ [
                      {
                        c_id = !next_conn_id;
                        c_fd = fd;
                        c_in = Buffer.create 256;
                        c_out = Bytes.empty;
                        c_out_pos = 0;
                        c_alive = true;
                        c_close_after_flush = false;
                      };
                    ];
                accept_all ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                ()
            | exception Unix.Unix_error (_, _, _) -> ()
          in
          accept_all ()
        end;
        (* worker pool progress: completed replies, deadlines, retries *)
        (match t.t_dispatch with
        | Some d ->
            let ready = List.filter (fun fd -> List.memq fd worker_fds) readable in
            List.iter (complete d) (Dispatch.step d ~now:(Clock.now ()) ~ready)
        | None -> ());
        (* client requests *)
        if not t.t_stop then
          List.iter
            (fun conn ->
              if conn.c_alive && (not conn.c_close_after_flush) && List.memq conn.c_fd readable
              then begin
                let closed = fill_conn conn = `Closed in
                drain_frames conn ~on_frame:(handle_frame conn);
                flush_conn conn;
                if closed then close_conn conn
              end)
            !conns;
        (* drain buffered responses to every writable client *)
        List.iter
          (fun conn -> if conn.c_alive && List.memq conn.c_fd writable then flush_conn conn)
          !conns;
        conns := List.filter (fun c -> c.c_alive) !conns
      done)

let client_request ~socket req =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
      | () -> (
          Protocol.send fd req;
          match Protocol.recv ~max:Protocol.max_frame fd with
          | Ok v -> Ok v
          | Error `Eof -> Error "server closed the connection without responding"
          | Error (`Oversized n) -> Error (Printf.sprintf "oversized response (%d bytes)" n)
          | Error (`Bad_json msg) -> Error ("bad JSON in response: " ^ msg)
          | Error (`Error msg) -> Error msg))

(* The edit phase: an editor against a warm server.  One pooled
   [dmld serve --incremental -j 0] (one worker per core) on a Unix socket,
   driven as a closed loop by this process over one connection: an editor
   waits for each reply.  The buffer is the Table 1 corpus plus probe
   declarations, and three request kinds interleave:
   - [check_patch]: a chained one-declaration edit that changes one probe's
     goal constant, so one obligation of about a hundred is re-solved;
   - [check] of a seeded variant whose probes carry new goal constants;
   - [check] of a source already checked, which the memo answers.

   The two workloads put the server on opposite sides of its verdict
   cache.  In [cold] it has a table of one entry, so every goal of a
   variant misses and is solved.  In [warm] it has its default table and
   goal constants come from a pool of 8, so variant goals hit; the mix also
   shifts towards memo reads.  Both mixes are assumed, not taken from a
   recorded editor session.

   Traced rounds send the same requests and read what dmld states about
   them: the checker's time in each document, the [incr] block of each
   patch, the [cache] block of each variant check, and [status]. *)

open Perfbench_core
open Fixture
module J = Dml_obs.Json
module Protocol = Dml_server.Protocol
module Session = Dml_core.Session
module R = Dml_core.Report_json

type kind = Patch | Variant | Memo

(* What dmld reported about the requests of the traced rounds. *)
type layers = {
  mutable handle : float list;  (** checker seconds stated by a non-memo response *)
  mutable transport : float list;  (** its latency minus that, in seconds *)
  mutable recheck : float list;  (** checker seconds of a [check_patch] *)
  mutable incr_stats : (int * int) list;  (** dirty units, solver calls per patch *)
  mutable hits : int;  (** verdict-cache hits and misses of variant checks *)
  mutable misses : int;
  mutable lookup_s : float;
}

type t = {
  pid : int;
  sock : Unix.file_descr;
  probes : (int * int) array;  (** (goal constant, revision) per probe *)
  mutable base : J.t;  (** source id the next patch applies to *)
  mutable rev : int;
  mutable next_id : int;
  mutable seen : (string * string) list;  (** checked sources and their documents *)
  mutable constraints : int;  (** obligations of every buffer variant *)
  reference : Session.t;  (** cold in-process checks without a cache, the patch oracle *)
  plain : (kind, float list) Hashtbl.t;  (** latencies in ms, untraced *)
  traced : (kind, float list) Hashtbl.t;
  layers : layers;
}

let program = "buffer"
let scrub_keys = R.schedule_dependent_fields @ [ "solver" ]
let max_seen = 8

(* The [warm] workload draws goal constants from this pool, so variant
   goals repeat and hit the verdict cache. *)
let warm_pool = [| 17; 23; 31; 47; 64; 96; 128; 255 |]

let connect path =
  let deadline = Proc.now () +. 10. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ when Proc.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let request t fields =
  t.next_id <- t.next_id + 1;
  let v = J.Obj (("id", J.Int t.next_id) :: fields) in
  let start = Proc.now () in
  Protocol.send t.sock v;
  let r = Protocol.recv t.sock in
  let stop = Proc.now () in
  let resp =
    match r with
    | Ok resp -> resp
    | Error e ->
        let msg =
          match e with
          | `Eof -> "connection closed"
          | `Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n
          | `Bad_json m | `Error m -> m
        in
        J.Obj [ ("ok", J.Bool false); ("error", J.String msg) ]
  in
  (v, resp, start, stop)

let result resp = Option.value (J.member "result" resp) ~default:J.Null

let cold_doc t src =
  match Dml_core.Pipeline.check_s t.reference src with
  | Ok rp -> R.of_report ~program rp
  | Error f -> R.of_failure ~program f

let check_patch_fields t src =
  [
    ("op", J.String "check_patch");
    ("program", J.String program);
    ("source", J.String src);
    ("base", t.base);
  ]

let check_fields src = [ ("op", J.String "check"); ("program", J.String program); ("source", J.String src) ]

(* Send a patch and verify it against a cold check of the same source. *)
let patch t src =
  let ((_, resp, _, _) as r) = request t (check_patch_fields t src) in
  let res = result resp in
  let doc = Option.value (J.member "check" res) ~default:J.Null in
  let o =
    match Classify.envelope ~expect_memo:(Some false) resp with
    | Classify.Ok -> Classify.same_doc ~scrub_keys ~what:"patched buffer" doc (cold_doc t src)
    | o -> o
  in
  outcome "edit/check_patch" o;
  (match Option.bind (J.member "incr" res) (J.member "source_id") with
  | Some id -> t.base <- id
  | None -> ());
  r

let start_server ctx =
  let dir = Filename.concat ctx.work "edit" in
  mkdir_p dir;
  let path = Filename.concat dir "dmld.sock" in
  (try Sys.remove path with Sys_error _ -> ());
  let pid =
    Proc.spawn ~out:(Filename.concat dir "dmld.out") ctx.dmld
      ([ "serve"; "--incremental"; "-j"; "0"; "--socket"; path ]
      @ if ctx.warm then [] else [ "--cache-entries"; "1" ])
  in
  (pid, connect path)

(* Servers still running; [teardown_all] stops them when the benchmark
   exits, however it exits. *)
let live = ref []

let setup ctx =
  let pid, sock = start_server ctx in
  live := pid :: !live;
  let reference = Session.create ~options:Session.default_options () in
  let t =
    {
      pid;
      sock;
      probes = base_probes ();
      base = J.Null;
      rev = 0;
      next_id = 0;
      seen = [];
      constraints = 0;
      reference;
      plain = Hashtbl.create 3;
      traced = Hashtbl.create 3;
      layers =
        { handle = []; transport = []; recheck = []; incr_stats = []; hits = 0; misses = 0; lookup_s = 0. };
    }
  in
  let src = buffer t.probes in
  let _, resp, _, _ = patch t src in
  let doc = Option.value (J.member "check" (result resp)) ~default:J.Null in
  (match J.member "constraints" doc with Some (J.Int c) -> t.constraints <- c | _ -> ());
  let _, resp, _, _ = request t (check_fields src) in
  outcome "edit/check" (Classify.envelope ~expect_memo:(Some true) resp);
  t.seen <- [ (src, J.to_string (result resp)) ];
  t

let teardown t =
  (try
     Protocol.send t.sock (J.Obj [ ("op", J.String "shutdown") ]);
     ignore (Protocol.recv t.sock)
   with _ -> ());
  (try Unix.close t.sock with Unix.Unix_error _ -> ());
  ignore (Proc.waitpid [] t.pid);
  live := List.filter (( <> ) t.pid) !live

let teardown_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Proc.waitpid [] pid))
    !live;
  live := []

let pick ctx =
  let x = Random.State.float ctx.rng 1. in
  let patch, variant = if ctx.warm then (0.15, 0.15) else (0.45, 0.45) in
  if x < patch then Patch else if x < patch +. variant then Variant else Memo

let goal_constant ctx =
  if ctx.warm then warm_pool.(Random.State.int ctx.rng (Array.length warm_pool)) else fresh_k ctx.rng

let samples tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[]

let num doc k = match J.member k doc with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> 0.
let int doc k = match J.member k doc with Some (J.Int i) -> i | _ -> 0

(* Read what dmld states about one traced request: the checker's time in
   the check document, the [incr] block of a patch and the [cache] block of
   a variant check.  The request's span gets the checker's time as its
   child, so its self time is the server's own cost around the checker. *)
let observe t kind resp ~t0 ~t1 =
  let l = t.layers in
  let res = result resp in
  let doc = match kind with Patch -> Option.value (J.member "check" res) ~default:J.Null | _ -> res in
  Spans.record "edit.request" ~start:t0 ~stop:t1 (fun () ->
      if kind <> Memo then begin
        let checker = num doc "gen_s" +. num doc "solve_s" in
        Spans.record "server.handle" ~start:t0 ~stop:(t0 +. checker) ignore;
        l.handle <- checker :: l.handle;
        l.transport <- (t1 -. t0 -. checker) :: l.transport
      end);
  match kind with
  | Patch ->
      l.recheck <- (num doc "gen_s" +. num doc "solve_s") :: l.recheck;
      let incr = Option.value (J.member "incr" res) ~default:J.Null in
      l.incr_stats <- (int incr "dirty", int incr "solver_calls") :: l.incr_stats
  | Variant ->
      let c = Option.value (J.member "cache" doc) ~default:J.Null in
      l.hits <- l.hits + int c "hits" + int c "disk_hits";
      l.misses <- l.misses + int c "misses";
      l.lookup_s <- l.lookup_s +. num c "lookup_s"
  | Memo -> ()

(* One slice of the closed loop, [duration] seconds long. *)
let slice ctx t ~duration ~traced =
  let lat = if traced then t.traced else t.plain in
  let add k v = Hashtbl.replace lat k (v :: samples lat k) in
  let stop = Proc.now () +. duration in
  while Proc.now () < stop do
    Spans.new_op ();
    let kind = pick ctx in
    let _, resp, t0, t1 =
      match kind with
      | Patch ->
          let i = Random.State.int ctx.rng n_probes in
          t.rev <- t.rev + 1;
          t.probes.(i) <- (goal_constant ctx, t.rev);
          patch t (buffer t.probes)
      | Variant ->
          let probes = Array.copy t.probes in
          t.rev <- t.rev + 1;
          for _ = 1 to 3 do
            probes.(Random.State.int ctx.rng n_probes) <- (goal_constant ctx, t.rev)
          done;
          let src = buffer probes in
          let ((_, resp, _, _) as r) = request t (check_fields src) in
          let o =
            match Classify.envelope ~expect_memo:(Some false) resp with
            | Classify.Ok ->
                Classify.check_doc ~expected_valid:true ~expected_constraints:t.constraints
                  (result resp)
            | o -> o
          in
          outcome "edit/check" o;
          t.seen <- List.filteri (fun i _ -> i < max_seen) ((src, J.to_string (result resp)) :: t.seen);
          r
      | Memo ->
          let src, doc = List.nth t.seen (Random.State.int ctx.rng (List.length t.seen)) in
          let ((_, resp, _, _) as r) = request t (check_fields src) in
          let o =
            match Classify.envelope ~expect_memo:(Some true) resp with
            | Classify.Ok ->
                if J.to_string (result resp) = doc then Classify.Ok
                else Classify.Wrong_verdict "memo answer differs from the first answer"
            | o -> o
          in
          outcome "edit/memo" o;
          r
    in
    add kind ((t1 -. t0) *. 1e3);
    if traced then observe t kind resp ~t0 ~t1
  done

let report_e2e t =
  let lat = samples t.plain in
  metric "edit.patch_ms.p50" "ms" (Stats.median (lat Patch));
  metric "edit.check_ms.p50" "ms" (Stats.median (lat Variant));
  metric "edit.memo_ms.p50" "ms" (Stats.median (lat Memo))

let status_count t path =
  let _, resp, _, _ = request t [ ("op", J.String "status") ] in
  let v = List.fold_left (fun v k -> Option.bind v (J.member k)) (Some (result resp)) path in
  match v with Some (J.Int n) -> float_of_int n | _ -> nan

(* Canonical digests of the edit buffer's goals, timed in-process: no
   program reports digest time apart from lookup time.  Mean per goal. *)
let digest_us t =
  match Dml_core.Pipeline.frontend (buffer t.probes) with
  | Error _ -> nan
  | Ok fe ->
      let goals =
        List.concat_map
          (fun (ob : Dml_core.Elab.obligation) ->
            match Dml_constr.Constr.goals ob.Dml_core.Elab.ob_constr with Ok gs -> gs | Error _ -> [])
          fe.Dml_core.Pipeline.fe_obligations
      in
      let reps = 20 in
      let start = Proc.now () in
      Spans.with_span "cache.digest" (fun () ->
          for _ = 1 to reps do
            List.iter (fun g -> ignore (Dml_cache.Cache.digest_goal g)) goals
          done);
      (Proc.now () -. start) /. float_of_int (reps * max 1 (List.length goals)) *. 1e6

let report_layers t =
  let l = t.layers in
  (* the tails, from the untraced rounds: ungated, see README.md *)
  metric "edit.patch_ms.p95" "ms" (Stats.percentile (samples t.plain Patch) 95.);
  metric "edit.check_ms.p95" "ms" (Stats.percentile (samples t.plain Variant) 95.);
  let mean_ms xs = Stats.mean xs *. 1e3 in
  metric "server.handle_ms" "ms" (mean_ms l.handle);
  metric "server.transport_ms" "ms" (mean_ms l.transport);
  metric "incr.recheck_ms" "ms" (mean_ms l.recheck);
  let mean_of f = Stats.mean (List.map (fun x -> float_of_int (f x)) l.incr_stats) in
  metric "incr.dirty_units" "count" (mean_of fst);
  metric "incr.solver_calls" "count" (mean_of snd);
  let lookups = l.hits + l.misses in
  metric "cache.digest_us" "us" (digest_us t);
  metric "cache.lookup_us" "us" (l.lookup_s /. float_of_int (max 1 lookups) *. 1e6);
  metric "cache.hit_ratio" "ratio" (float_of_int l.hits /. float_of_int (max 1 lookups));
  metric "server.memo_hits" "count" (status_count t [ "memo"; "hits" ]);
  metric "dispatch.retries" "count" (status_count t [ "pool"; "faults"; "retries" ]);
  metric "dispatch.respawned" "count" (status_count t [ "pool"; "faults"; "workers_respawned" ]);
  overhead "edit" ~untraced:(Stats.median (samples t.plain Patch))
    ~traced:(Stats.median (samples t.traced Patch))

let report ctx t = if ctx.trace then report_layers t else report_e2e t

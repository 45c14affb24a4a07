(* Child processes, timed from outside on the monotonic wall clock.  A
   child's stdout goes to a file in the work directory and is read back
   after it exits; stdin and stderr are /dev/null.  Every child is waited
   for, and a child past its limit is killed and then waited for, so no
   process outlives the benchmark. *)

type result = {
  code : int option;  (** exit code; [None] when killed by a signal *)
  killed : bool;  (** killed by the benchmark for overrunning its limit *)
  start : float;
  stop : float;
  out : string;
}

let secs r = r.stop -. r.start
let now = Dml_obs.Clock.now
let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec waitpid flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let code_of = function Unix.WEXITED c -> Some c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> None

let spawn ~out prog args =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Lazy.force devnull in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null fd null)
  in
  pid

let finish ~start ~out ~killed status =
  let stop = now () in
  { code = code_of status; killed; start; stop; out = (try read_file out with Sys_error _ -> "") }

(* One child, waited for without a limit. *)
let run ~out prog args =
  let start = now () in
  let pid = spawn ~out prog args in
  let _, status = waitpid [] pid in
  finish ~start ~out ~killed:false status

(* Jobs run with at most [slots] children at a time, each killed once it has
   run for [limit_s].  [launch] starts a job's child and returns its pid.
   Results come back in job order.  The poll interval (1 ms) bounds the
   timing error of each job. *)
let run_limited ~slots ~limit_s (jobs : ((unit -> int) * string) list) =
  let jobs = Array.of_list jobs in
  let results = Array.make (Array.length jobs) None in
  let running = ref [] in
  let next = ref 0 in
  let launch () =
    while List.length !running < slots && !next < Array.length jobs do
      let launch, out = jobs.(!next) in
      let start = now () in
      running := (!next, launch (), start, out) :: !running;
      incr next
    done
  in
  launch ();
  while !running <> [] do
    Unix.sleepf 0.001;
    running :=
      List.filter
        (fun (i, pid, start, out) ->
          match waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              if now () -. start >= limit_s then begin
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                let _, status = waitpid [] pid in
                let r = finish ~start ~out ~killed:true status in
                results.(i) <- Some { r with stop = start +. limit_s };
                false
              end
              else true
          | _, status ->
              results.(i) <- Some (finish ~start ~out ~killed:false status);
              false)
        !running;
    launch ()
  done;
  Array.to_list (Array.map Option.get results)

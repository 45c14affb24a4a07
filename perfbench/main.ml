(* The repository benchmark: one command that runs the four phases of the
   paper's cost model -- check (what a user types), edit (a warm dmld),
   infer (annotation inference) and run (generated code) -- and prints
   every metric BENCHMARK.json declares, by name and unit, with the
   operations attempted and failed.

     perfbench/run.sh --workload cold|warm --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics; with --trace 1 every
   second round is traced, and it prints the per-layer metrics, including
   each phase's tracing overhead.  The last line of
   standard output is the result object. *)

open Perfbench_core
module J = Dml_obs.Json

let usage = "main --workload cold|warm --seed N --seconds S --trace 0|1"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* The metric names the result must carry in this mode, from BENCHMARK.json. *)
let declared ~trace =
  let text = try Proc.read_file "BENCHMARK.json" with Sys_error m -> die "%s" m in
  match J.of_string text with
  | Error m -> die "BENCHMARK.json: %s" m
  | Ok doc -> (
      match J.member (if trace then "per_layer" else "end_to_end") doc with
      | Some (J.List ms) ->
          List.filter_map (fun m -> match J.member "name" m with Some (J.String n) -> Some n | _ -> None) ms
      | _ -> die "BENCHMARK.json: no metric list")

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type fixtures = {
  check : Phase_check.t;
  edit : Phase_edit.t;
  infer : Phase_infer.t;
  run : Phase_run.t;
}

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  cold or warm");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload [ "cold"; "warm" ]) then die "unknown workload %S" !workload;
  if !seed < 0 || !seconds <= 0 || not (List.mem !trace [ 0; 1 ]) then die "%s" usage;
  let trace = !trace = 1 in
  let names = declared ~trace in
  let bin = Filename.concat (Filename.concat "_build" "default") "bin" in
  let dmlc = Filename.concat bin "dmlc.exe" and dmld = Filename.concat bin "dmld.exe" in
  if not (Sys.file_exists dmlc && Sys.file_exists dmld) then die "%s and %s are not built" dmlc dmld;
  let root = "_perfbench" in
  let work = Filename.concat root (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())) in
  Fixture.mkdir_p (Filename.concat work "tmp");
  (* the native toolchain's temporary files stay inside the checkout *)
  Unix.putenv "TMPDIR" (Filename.concat (Sys.getcwd ()) (Filename.concat work "tmp"));
  let ctx phase =
    {
      Fixture.rng = Random.State.make [| !seed; phase |];
      trace;
      work;
      dmlc;
      dmld;
      warm = !workload = "warm";
    }
  in
  let c_check = ctx 1 and c_edit = ctx 2 and c_infer = ctx 3 and c_run = ctx 4 in
  at_exit Phase_edit.teardown_all;
  (* an interrupted run still stops the servers it started *)
  List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let setup () =
    {
      check = Phase_check.setup c_check;
      edit = Phase_edit.setup c_edit;
      infer = Phase_infer.setup c_infer;
      run = Phase_run.setup c_run;
    }
  in
  (* set-up runs three times and reports its median; the last one is kept *)
  let setups =
    List.init 3 (fun i ->
        let t0 = Proc.now () in
        let f = setup () in
        let dt = Proc.now () -. t0 in
        if i < 2 then Phase_edit.teardown f.edit;
        (f, dt))
  in
  let f = fst (List.nth setups 2) in
  Fixture.metric "setup_s" "s" (Stats.median (List.map snd setups));
  (* Check, edit and run interleave in rounds, so each of their metrics
     samples the whole run and not one stretch of it: on a shared machine
     the speed drifts by tens of percent over tens of seconds.  A round runs
     one slice of each; check and edit slices take 35 % and 45 % of
     [--seconds] over all rounds, the pass over the twins runs in two
     halves, in the second and fifth rounds, and a run slice is one round of
     every kernel.  A traced run traces every second round, so that drift
     falls alike on traced and untraced rounds, and runs the infer pass
     twice, untraced and traced; its check and edit slices are shorter by
     three sevenths, to keep its length close to an untraced run's. *)
  let rounds = 6 in
  let share x =
    (if trace then x *. 4. /. 7. else x) *. float_of_int !seconds /. float_of_int rounds
  in
  Fun.protect
    ~finally:(fun () -> Phase_edit.teardown f.edit)
    (fun () ->
      Spans.enabled := trace;
      let run_ok = Phase_run.prepare f.run in
      Spans.enabled := false;
      for i = 1 to rounds do
        let traced = trace && i mod 2 = 0 in
        Spans.enabled := traced;
        if traced && i = 2 then Phase_check.startup_probes c_check;
        if i mod (rounds / 2) = 2 then begin
          let part = (i / (rounds / 2)) + 1 in
          Phase_infer.slice c_infer f.infer ~part ~parts:2 ~traced:false;
          if trace then begin
            Spans.enabled := true;
            Phase_infer.slice c_infer f.infer ~part ~parts:2 ~traced:true;
            Spans.enabled := traced
          end
        end;
        Phase_check.slice c_check f.check ~duration:(share 0.35) ~traced;
        Phase_edit.slice c_edit f.edit ~duration:(share 0.45) ~traced;
        if run_ok then Phase_run.slice c_run f.run ~traced
      done;
      Spans.enabled := false;
      Phase_check.report c_check f.check;
      Phase_edit.report c_edit f.edit;
      Phase_infer.report c_infer f.infer;
      if run_ok then Phase_run.report c_run f.run);
  if trace then
    ignore
      (J.write_file
         (Filename.concat root (Printf.sprintf "trace-%s-%d.json" !workload !seed))
         (Spans.to_json ()));
  remove_tree work;
  let correct = !Fixture.wrong = 0 in
  let metrics = List.filter_map (fun n -> Option.map (fun m -> (n, m)) (List.assoc_opt n !Fixture.metrics)) names in
  List.iter (fun (n, (v, u)) -> Printf.printf "%-40s %14.4f %s\n" n v u) metrics;
  Hashtbl.iter
    (fun phase (a, fl) -> Printf.printf "%-40s %d attempted, %d failed\n" ("phase " ^ phase) a fl)
    Fixture.by_phase;
  let missing = List.filter (fun n -> not (List.mem_assoc n metrics)) names in
  if correct && missing <> [] then die "no value for %s" (String.concat ", " missing);
  let result =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int !Fixture.attempted);
        ("failed", J.Int !Fixture.failed);
        ( "metrics",
          J.Obj
            (if correct then
               List.map (fun (n, (v, u)) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.String u) ])) metrics
             else []) );
      ]
  in
  print_endline (J.to_string result)

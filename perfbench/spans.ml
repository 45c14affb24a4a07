(* The traced run's span recorder.  Spans are kept in memory and written out
   when the benchmark ends.  Each span carries its parent's id and the id of
   the operation (one request, one spawn, one program) it belongs to.

   Most spans are intervals measured elsewhere ([record]): a child process
   timed from outside, or a stage span the program under test wrote to its
   own trace ([import]).  A span's self time -- its duration minus its
   children's -- is then the part no layer accounts for: for a [dmlc]
   spawn, process start and everything else outside the program's own
   spans.  [with_span] times an in-process call of the benchmark itself. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  op : int;
  start : float;
  stop : float;
}

let enabled = ref false
let next_id = ref 0
let next_op = ref 0
let current_op = ref 0
let stack : int list ref = ref []
let finished : span list ref = ref []

let new_op () =
  incr next_op;
  current_op := !next_op

(* Record the interval [start, stop] as a child of the innermost open span;
   [f] runs with it open, so spans recorded by [f] become its children.
   Without [stop] the span ends when [f] returns. *)
let record name ~start ?stop f =
  if not !enabled then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        stack := List.tl !stack;
        let stop = match stop with Some t -> t | None -> Dml_obs.Clock.now () in
        finished := { id; name; parent; op = !current_op; start; stop } :: !finished)
      f
  end

let with_span name f = record name ~start:(Dml_obs.Clock.now ()) f

(* A program's own span tree, under the innermost open span, with each
   span renamed by [rename]. *)
let rec import ~rename (s : Dtrace.span) =
  record (rename s) ~start:s.Dtrace.start ~stop:(s.Dtrace.start +. s.Dtrace.dur) (fun () ->
      List.iter (import ~rename) s.Dtrace.children)

let dur s = s.stop -. s.start
let all () = List.rev !finished
let named name = List.filter (fun s -> s.name = name) (all ())
let durations name = List.map dur (named name)

(* Children's total duration per parent id. *)
let child_time () =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun c -> Hashtbl.replace tbl c.parent (dur c +. Option.value (Hashtbl.find_opt tbl c.parent) ~default:0.))
    !finished;
  fun s -> Option.value (Hashtbl.find_opt tbl s.id) ~default:0.

let self_times name =
  let children = child_time () in
  List.map (fun s -> dur s -. children s) (named name)

let to_json () =
  let module J = Dml_obs.Json in
  let children = child_time () in
  J.Obj
    [
      ("schema", J.String "perfbench-trace/1");
      ( "spans",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("id", J.Int s.id);
                   ("name", J.String s.name);
                   ("parent", J.Int s.parent);
                   ("op", J.Int s.op);
                   ("start_s", J.Float s.start);
                   ("dur_s", J.Float (dur s));
                   ("self_s", J.Float (dur s -. children s));
                 ])
             (all ())) );
    ]

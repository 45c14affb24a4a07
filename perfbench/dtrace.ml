(* Reading the span trace a program under test wrote itself ([dmlc
   --trace FILE], schema dml-trace/1): a forest of spans, each with a name,
   a start, a duration, attributes and children. *)

module J = Dml_obs.Json

type span = {
  name : string;
  start : float;
  dur : float;
  attrs : (string * J.t) list;
  children : span list;
}

let rec span_of_json v =
  let num k = match J.member k v with Some (J.Float f) -> f | Some (J.Int i) -> float_of_int i | _ -> 0. in
  {
    name = (match J.member "name" v with Some (J.String n) -> n | _ -> "?");
    start = num "start_s";
    dur = num "dur_s";
    attrs = (match J.member "attrs" v with Some (J.Obj kvs) -> kvs | _ -> []);
    children = (match J.member "children" v with Some (J.List cs) -> List.map span_of_json cs | _ -> []);
  }

(* The roots of a dml-trace/1 document, or [None] when it is not one. *)
let of_json v =
  match (J.member "schema" v, J.member "spans" v) with
  | Some (J.String "dml-trace/1"), Some (J.List roots) -> Some (List.map span_of_json roots)
  | _ -> None

let read file =
  match In_channel.with_open_bin file In_channel.input_all with
  | text -> Option.bind (Result.to_option (J.of_string text)) of_json
  | exception Sys_error _ -> None

let int_attr s k = match List.assoc_opt k s.attrs with Some (J.Int i) -> i | _ -> 0

(* Every span of the forest, parents before their children. *)
let rec flatten spans = List.concat_map (fun s -> s :: flatten s.children) spans

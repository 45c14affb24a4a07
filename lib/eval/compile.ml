open Dml_lang
open Dml_mltype
open Value

(* Compile-time environment: names, innermost first.  Run-time environment:
   values in the same order.  Variable access compiles to a list offset,
   computed once. *)
type cenv = string list
type renv = Value.t list

type compiled_env = {
  names : cenv;
  values : renv;
  fast : (string * Prims.fast) list;  (* direct-call primitives *)
  checked_fast : (string * Prims.fast) list;  (* impls for degraded sites *)
  degraded : Loc.t -> bool;  (* sites that must keep their dynamic check *)
  base_len : int;  (* depth of the primitive region at the bottom of [names] *)
  meter : Prims.counters option;  (* the cost meter, when counting *)
}

exception Match_failure_dml of string

let initial_fast mode ?counters ?degraded () =
  let fast = Prims.fast_table mode ?counters () in
  (* Under graceful degradation, direct calls at degraded sites and every
     first-class (non-direct) use of a primitive get the checked
     implementation; only direct calls at proven sites stay unchecked. *)
  let checked_fast, value_table =
    match degraded with
    | None -> (fast, fast)
    | Some _ ->
        let checked = Prims.fast_table Prims.Checked ?counters () in
        (checked, checked)
  in
  let degraded = Option.value degraded ~default:(fun _ -> false) in
  {
    names = List.rev_map fst value_table;
    values = List.rev_map (fun (_, f) -> Prims.value_of_fast f) value_table;
    fast;
    checked_fast;
    degraded;
    base_len = List.length value_table;
    meter = counters;
  }

let lookup ce x =
  let rec go names values =
    match (names, values) with
    | n :: _, v :: _ when n = x -> v
    | _ :: ns, _ :: vs -> go ns vs
    | _ -> raise (Runtime_error ("unbound variable at run time: " ^ x))
  in
  go ce.names ce.values

let index_of cenv x =
  let rec go i = function
    | [] -> raise (Runtime_error ("unbound variable at compile time: " ^ x))
    | n :: _ when n = x -> i
    | _ :: ns -> go (i + 1) ns
  in
  go 0 cenv

let access i =
  (* specialised accessors for the common shallow cases *)
  match i with
  | 0 -> fun (renv : renv) -> (match renv with v :: _ -> v | [] -> assert false)
  | 1 -> fun renv -> (match renv with _ :: v :: _ -> v | _ -> assert false)
  | 2 -> fun renv -> (match renv with _ :: _ :: v :: _ -> v | _ -> assert false)
  | _ -> fun renv -> List.nth renv i

(* Compile a pattern into the names it binds (outermost-first) and a matcher
   that produces the bound values in the same order (reversed onto the
   environment by the caller). *)
let rec compile_pat (p : Tast.tpat) : string list * (Value.t -> Value.t list option) =
  match p.Tast.tpdesc with
  | Tast.TPwild -> ([], fun _ -> Some [])
  | Tast.TPvar x -> ([ x ], fun v -> Some [ v ])
  | Tast.TPint n -> ([], function Vint m when m = n -> Some [] | _ -> None)
  | Tast.TPbool b -> ([], function Vbool c when c = b -> Some [] | _ -> None)
  | Tast.TPchar a -> ([], function Vchar b when b = a -> Some [] | _ -> None)
  | Tast.TPstring a -> ([], function Vstring b when b = a -> Some [] | _ -> None)
  | Tast.TPtuple ps ->
      let parts = List.map compile_pat ps in
      let names = List.concat_map fst parts in
      let matchers = List.map snd parts in
      ( names,
        function
        | Vtuple vs when List.length vs = List.length matchers ->
            let rec go ms vs acc =
              match (ms, vs) with
              | [], [] -> Some (List.concat (List.rev acc))
              | m :: ms, v :: vs -> (
                  match m v with Some bound -> go ms vs (bound :: acc) | None -> None)
              | _ -> None
            in
            go matchers vs []
        | _ -> None )
  | Tast.TPcon (c, _, None) ->
      ([], function Vcon (c', None) when c' = c -> Some [] | _ -> None)
  | Tast.TPcon (c, _, Some argp) ->
      let names, m = compile_pat argp in
      ( names,
        function Vcon (c', Some v) when c' = c -> m v | _ -> None )

let extend_cenv cenv names = List.rev_append names cenv
let extend_renv renv values = List.rev_append values renv

type info = {
  ifast : (string * Prims.fast) list;
  ichecked : (string * Prims.fast) list;
  idegraded : Loc.t -> bool;
  ibase : int;
  imeter : Prims.counters option;
}

(* Virtual cycles a node costs on its own, excluding its subexpressions: the
   cost table documented at [initial_fast].  A direct primitive call costs
   nothing here; the primitive charges its own work. *)
let node_cost (e : Tast.texp) =
  match e.Tast.tdesc with
  | Tast.TEint _ | Tast.TEbool _ | Tast.TEchar _ | Tast.TEstring _ | Tast.TEvar _
  | Tast.TEcon (_, _, None) ->
      1
  | Tast.TEcon (_, _, Some _) -> 3
  | Tast.TEtuple es -> 2 + List.length es
  | Tast.TEapp _ -> 2
  | Tast.TEif _ | Tast.TEcase _ | Tast.TEandalso _ | Tast.TEorelse _ | Tast.TEhandle _ -> 1
  | Tast.TEfn _ -> 3
  | Tast.TEraise _ -> 2
  | Tast.TElet _ | Tast.TEannot _ -> 0

(* Charge [n] cycles on entry to a compiled node.  Without a meter the
   closure is returned as is, so uncounted runs pay nothing. *)
let tick info n (c : renv -> Value.t) =
  match info.imeter with
  | Some cnt when n > 0 ->
      fun renv ->
        cnt.Prims.cycles <- cnt.Prims.cycles + n;
        c renv
  | _ -> c

let rec compile info cenv (e : Tast.texp) : renv -> Value.t =
  match direct_call info cenv e with
  | Some compiled -> compiled
  | None -> tick info (node_cost e) (compile_node info cenv e)

(* A saturated application of a (non-shadowed) primitive compiles to a
   direct n-ary call.  Operands are let-bound so they evaluate left to
   right, as SML requires (OCaml evaluates arguments right to left). *)
and direct_call info cenv (e : Tast.texp) =
  match e.Tast.tdesc with
  | Tast.TEapp ({ Tast.tdesc = Tast.TEvar (x, _); _ }, a) -> begin
      let table = if info.idegraded e.Tast.tloc then info.ichecked else info.ifast in
      match List.assoc_opt x table with
      | Some fast when index_of cenv x >= List.length cenv - info.ibase -> (
          match (fast, a.Tast.tdesc) with
          | Prims.F1 g, _ ->
              let ca = compile info cenv a in
              Some (fun renv -> g (ca renv))
          | Prims.F2 g, Tast.TEtuple [ e1; e2 ] ->
              let c1 = compile info cenv e1 and c2 = compile info cenv e2 in
              Some (fun renv -> let v1 = c1 renv in g v1 (c2 renv))
          | Prims.F3 g, Tast.TEtuple [ e1; e2; e3 ] ->
              let c1 = compile info cenv e1
              and c2 = compile info cenv e2
              and c3 = compile info cenv e3 in
              Some (fun renv -> let v1 = c1 renv in let v2 = c2 renv in g v1 v2 (c3 renv))
          | _ -> None)
      | _ -> None
    end
  | _ -> None

and compile_node info cenv (e : Tast.texp) : renv -> Value.t =
  match e.Tast.tdesc with
  | Tast.TEint n ->
      let v = Vint n in
      fun _ -> v
  | Tast.TEbool b ->
      let v = Vbool b in
      fun _ -> v
  | Tast.TEchar c ->
      let v = Vchar c in
      fun _ -> v
  | Tast.TEstring s ->
      let v = Vstring s in
      fun _ -> v
  | Tast.TEvar (x, _) -> access (index_of cenv x)
  | Tast.TEcon (c, _, None) -> begin
      match Mltype.repr e.Tast.tty with
      | Mltype.Tarrow _ ->
          let v = Vfun (fun v -> Vcon (c, Some v)) in
          fun _ -> v
      | _ ->
          let v = Vcon (c, None) in
          fun _ -> v
    end
  | Tast.TEcon (c, _, Some arg) ->
      let carg = compile info cenv arg in
      fun renv -> Vcon (c, Some (carg renv))
  | Tast.TEtuple es ->
      let ces = List.map (compile info cenv) es in
      fun renv -> Vtuple (List.map (fun c -> c renv) ces)
  | Tast.TEapp (f, a) ->
      let cf = compile info cenv f in
      let ca = compile info cenv a in
      (* the function before the argument *)
      fun renv -> let fv = cf renv in as_fun fv (ca renv)
  | Tast.TEif (c, t, f) ->
      let cc = compile info cenv c in
      let ct = compile info cenv t in
      let cf = compile info cenv f in
      fun renv -> if as_bool (cc renv) then ct renv else cf renv
  | Tast.TEcase (scrut, arms) ->
      let cs = compile info cenv scrut in
      let carms =
        List.map
          (fun (p, body) ->
            let names, matcher = compile_pat p in
            let cbody = compile info (extend_cenv cenv names) body in
            (matcher, cbody))
          arms
      in
      fun renv ->
        let v = cs renv in
        let rec try_arms = function
          | [] -> raise (Match_failure_dml (Value.to_string v))
          | (matcher, cbody) :: rest -> (
              match matcher v with
              | Some bound -> cbody (extend_renv renv bound)
              | None -> try_arms rest)
        in
        try_arms carms
  | Tast.TEfn (p, body) ->
      let names, matcher = compile_pat p in
      let cbody = compile info (extend_cenv cenv names) body in
      fun renv ->
        Vfun
          (fun v ->
            match matcher v with
            | Some bound -> cbody (extend_renv renv bound)
            | None -> raise (Match_failure_dml (Value.to_string v)))
  | Tast.TElet (decs, body) ->
      let rec go cenv = function
        | [] ->
            let cbody = compile info cenv body in
            fun renv -> cbody renv
        | d :: rest ->
            let cenv', cd = compile_dec info cenv d in
            let crest = go cenv' rest in
            fun renv -> crest (cd renv)
      in
      go cenv decs
  | Tast.TEandalso (a, b) ->
      let ca = compile info cenv a in
      let cb = compile info cenv b in
      fun renv -> if as_bool (ca renv) then cb renv else Vbool false
  | Tast.TEorelse (a, b) ->
      let ca = compile info cenv a in
      let cb = compile info cenv b in
      fun renv -> if as_bool (ca renv) then Vbool true else cb renv
  | Tast.TEannot (inner, _) -> compile info cenv inner
  | Tast.TEraise inner ->
      let ce = compile info cenv inner in
      fun renv -> raise (Dml_exn (ce renv))
  | Tast.TEhandle (body, arms) ->
      let cbody = compile info cenv body in
      let carms =
        List.map
          (fun (p, arm) ->
            let names, matcher = compile_pat p in
            let carm = compile info (extend_cenv cenv names) arm in
            (matcher, carm))
          arms
      in
      fun renv -> (
        try cbody renv
        with e -> (
          match Value.exn_value_of e with
          | None -> raise e
          | Some v ->
              let rec try_arms = function
                | [] -> raise e
                | (matcher, carm) :: rest -> (
                    match matcher v with
                    | Some bound -> carm (extend_renv renv bound)
                    | None -> try_arms rest)
              in
              try_arms carms))

(* Compile a declaration: returns the extended compile-time environment and
   a run-time environment transformer. *)
and compile_dec info cenv (d : Tast.tdec) : cenv * (renv -> renv) =
  match d with
  | Tast.TDexception _ -> (cenv, fun renv -> renv)
  | Tast.TDval (p, e, _, _) ->
      let ce = compile info cenv e in
      let names, matcher = compile_pat p in
      ( extend_cenv cenv names,
        fun renv ->
          let v = ce renv in
          match matcher v with
          | Some bound -> extend_renv renv bound
          | None -> raise (Match_failure_dml (Value.to_string v)) )
  | Tast.TDfun fds ->
      let fnames = List.map (fun fd -> fd.Tast.tfname) fds in
      let cenv' = extend_cenv cenv fnames in
      let compiled =
        List.map
          (fun (fd : Tast.tfundef) ->
            let arity =
              match fd.Tast.tfclauses with (ps, _) :: _ -> List.length ps | [] -> 0
            in
            let cclauses =
              List.map
                (fun (pats, body) ->
                  let parts = List.map compile_pat pats in
                  let names = List.concat_map fst parts in
                  let matchers = List.map snd parts in
                  let cbody = compile info (extend_cenv cenv' names) body in
                  (matchers, cbody))
                fd.Tast.tfclauses
            in
            (fd.Tast.tfname, arity, cclauses))
          fds
      in
      ( cenv',
        fun renv ->
          (* tie the recursive knot through a reference *)
          let renv_ref = ref renv in
          let make (name, arity, cclauses) =
            let apply args =
              let rec try_clauses = function
                | [] -> raise (Match_failure_dml name)
                | (matchers, cbody) :: rest -> (
                    let rec bind ms args acc =
                      match (ms, args) with
                      | [], [] -> Some (List.concat (List.rev acc))
                      | m :: ms, v :: args -> (
                          match m v with Some b -> bind ms args (b :: acc) | None -> None)
                      | _ -> None
                    in
                    match bind matchers args [] with
                    | Some bound -> cbody (extend_renv !renv_ref bound)
                    | None -> try_clauses rest)
              in
              try_clauses cclauses
            in
            let rec curry collected k =
              if k = 0 then apply (List.rev collected)
              else Vfun (fun v -> curry (v :: collected) (k - 1))
            in
            curry [] arity
          in
          let fvalues = List.map make compiled in
          renv_ref := extend_renv renv fvalues;
          !renv_ref )

let run_program ce (prog : Tast.tprogram) =
  List.fold_left
    (fun ce ttop ->
      match ttop with
      | Tast.TTdec d ->
          let info =
            { ifast = ce.fast; ichecked = ce.checked_fast;
              idegraded = ce.degraded; ibase = ce.base_len; imeter = ce.meter }
          in
          let names', transform = compile_dec info ce.names d in
          { ce with names = names'; values = transform ce.values }
      | Tast.TTdatatype _ | Tast.TTtyperef _ | Tast.TTassert _ | Tast.TTtypedef _ -> ce)
    ce prog

exception Error of string * Loc.t

type state = { src : string; mutable pos : int; mutable line : int; mutable col : int }

let current_pos st = { Loc.line = st.line; col = st.col }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_' || c = '\''

let rec skip_comment st depth start =
  match (peek st, peek2 st) with
  | Some '(', Some '*' ->
      advance st;
      advance st;
      skip_comment st (depth + 1) start
  | Some '*', Some ')' ->
      advance st;
      advance st;
      if depth > 1 then skip_comment st (depth - 1) start
  | Some _, _ ->
      advance st;
      skip_comment st depth start
  | None, _ -> raise (Error ("unterminated comment", Loc.make start (current_pos st)))

let lex_number st start_pos =
  let start = st.pos in
  while (match peek st with Some c when is_digit c -> true | _ -> false) do
    advance st
  done;
  match int_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n -> n
  | None -> raise (Error ("integer literal out of range", Loc.make start_pos (current_pos st)))

(* string body after the opening quote; handles backslash escapes for
   newline, tab, backslash, and the double quote *)
let lex_string_body st start =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> raise (Error ("unterminated string literal", Loc.make start (current_pos st)))
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> begin
        advance st;
        match peek st with
        | Some 'n' ->
            advance st;
            Buffer.add_char buf '\n';
            go ()
        | Some 't' ->
            advance st;
            Buffer.add_char buf '\t';
            go ()
        | Some '\\' ->
            advance st;
            Buffer.add_char buf '\\';
            go ()
        | Some '"' ->
            advance st;
            Buffer.add_char buf '"';
            go ()
        | _ -> raise (Error ("illegal escape in string literal", Loc.make start (current_pos st)))
      end
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c when is_ident_char c -> true | _ -> false) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_ws st
  | _ -> ()

let rec next_token st =
  skip_ws st;
  let start = current_pos st in
  let tok t = (t, Loc.make start (current_pos st)) in
  let open Token in
  match peek st with
  | None -> tok EOF
  | Some c when is_digit c -> tok (INT (lex_number st start))
  | Some c when is_alpha c || c = '_' -> begin
      let s = lex_ident st in
      if s = "_" then tok UNDERSCORE
      else match List.assoc_opt s keywords with Some kw -> tok kw | None -> tok (ID s)
    end
  | Some '\'' ->
      advance st;
      let s = lex_ident st in
      if s = "" then raise (Error ("expected type variable name after '", Loc.make start (current_pos st)))
      else tok (TYVAR s)
  | Some '"' ->
      advance st;
      tok (STRING (lex_string_body st start))
  | Some '#' -> begin
      advance st;
      match peek st with
      | Some '"' -> begin
          advance st;
          let s = lex_string_body st start in
          if String.length s = 1 then tok (CHAR s.[0])
          else raise (Error ("character literal must have length 1", Loc.make start (current_pos st)))
        end
      | _ -> raise (Error ("expected a character literal after #", Loc.make start (current_pos st)))
    end
  | Some c -> (
      let two target result =
        advance st;
        advance st;
        ignore target;
        tok result
      in
      let one result =
        advance st;
        tok result
      in
      match (c, peek2 st) with
      | '(', Some '*' ->
          advance st;
          advance st;
          skip_comment st 1 start;
          next_token st
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | '[', _ -> one LBRACKET
      | ']', _ -> one RBRACKET
      | '{', _ -> one LBRACE
      | '}', _ -> one RBRACE
      | ',', _ -> one COMMA
      | ';', _ -> one SEMI
      | '|', _ -> one BAR
      | '+', _ -> one PLUS
      | '~', _ -> one TILDE
      | '*', _ -> one STAR
      | '=', Some '>' -> two "=>" DARROW
      | '=', _ -> one EQ
      | '-', Some '>' -> two "->" ARROW
      | '-', _ -> one MINUS
      | '<', Some '|' -> two "<|" TRIANGLE
      | '<', Some '=' -> two "<=" LE
      | '<', Some '>' -> two "<>" NE
      | '<', _ -> one LT
      | '>', Some '=' -> two ">=" GE
      | '>', _ -> one GT
      | ':', Some ':' -> two "::" COLONCOLON
      | ':', Some '=' -> two ":=" ASSIGN
      | ':', _ -> one COLON
      | '!', _ -> one BANG
      | '^', _ -> one CARET
      | '/', Some '\\' -> two "/\\" WEDGE
      | '\\', Some '/' -> two "\\/" VEE
      | _ ->
          raise
            (Error (Printf.sprintf "illegal character %C" c, Loc.make start (current_pos st))))

let tokenize src =
  let st = { src; pos = 0; line = 1; col = 1 } in
  let rec loop acc =
    match next_token st with
    | (Token.EOF, _) as t -> List.rev (t :: acc)
    | t -> loop (t :: acc)
  in
  loop []

(* The checked kernel AST: the concrete syntax of what Codegen emits.

   Codegen's output grammar is small -- one type declaration, for a
   tape body a [strip] function of shift-class loops over ring
   buffers, the two entry points whose bodies are prelude bindings
   plus a fully parenthesized float expression over unsafe loads, and
   one Callback.register -- and this module is its parser and printer
   (Codegen builds an AST and prints it through here): a
   hand-written lexer (dotted paths lex as single idents, hex-float
   literals round-trip [%h] exactly, [-] glued to a digit starts a
   negative numeral) and a recursive-descent parser accepting exactly
   the emitted shapes, nothing more. The YS6xx translation validator
   (Lint.Native) compares parsed ASTs against the plan IR; the seeded
   miscompile injector (Faults.Miscompile) mutates them and prints
   them back. Keeping syntax here and judgment in the lint layer is
   what lets both ends share one grammar without a dependency cycle. *)

(* ------------------------------------------------------------------ *)
(* The checked AST                                                     *)

type binop = Add | Sub | Mul | Div

type addr =
  | Unit_addr of { data : int; row : int; shift : int }
  | Tab_addr of { data : int; row : int; tab : int; shift : int }
  | Lane_unit of { data : int; base : int * int; shift : int }
  | Lane_tab of { data : int; base : int * int; tab : int; shift : int }

type expr =
  | Lit of float
  | Get of addr
  | Neg of expr
  | Bin of binop * expr * expr
  | Fmin of expr * expr  (* (Float.min a b) *)
  | Fmax of expr * expr  (* (Float.max a b) *)
  | Sel of expr * expr * expr  (* (if c > 0.0 then a else b) *)
  | Buf of { cls : int; row : int; lane : int }  (* c<cls>_<row>.(k + lane) *)

type bind =
  | Bind_data of { name : int; src : int }
  | Bind_tab of { name : int; src : int }
  | Bind_row of { name : int; src : int }
  | Bind_base of { cls : int; row : int; load : int; lrow : int; x0 : bool }
  | Bind_ring of {
      cls : int;
      row : int;
      set : int;
      head : int;
      phys : int;
      len : int;
    }

type out_addr = Out_unit of { lp : int } | Out_tab of { lp : int }

type loop = { cls : int; row : int; span : int; body : expr }

type block = { restart : loop list; lead : loop }

type tape_ast = { strip : int; binds : bind list; blocks : block list }

type unit_ast = {
  point_binds : bind list;
  point_expr : expr;
  row_binds : bind list;
  row_out : out_addr;
  row_expr : expr;
  tape : tape_ast option;
  reg_name : string;
}

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | COLON
  | EQUAL
  | BANG
  | INT of int
  | FLOAT of float
  | IDENT of string
  | STRING of string
  | OP of string  (* "+." "-." "*." "/." "+" "-" "*" "/" ">" *)
  | EOF

exception Reject of string * int  (* message, 1-based line *)

let fail line fmt = Printf.ksprintf (fun m -> raise (Reject (m, line))) fmt

let is_digit c = c >= '0' && c <= '9'

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c || c = '\''

(* Tokenize the whole unit. Dotted paths ([Bigarray.Array1.unsafe_get])
   lex as single idents; [-] immediately followed by a digit starts a
   negative numeral (Codegen only emits that inside parentheses, and
   spaces the binary minus of [xe - 1]); hex-float literals lex through
   [float_of_string], which round-trips [%h] exactly. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] and line = ref 1 and i = ref 0 in
  let emit t = toks := (t, !line) :: !toks in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let skip_comment () =
    (* enter with !i at the '(' of "(*" *)
    let rec go depth =
      if !i >= n then fail !line "unterminated comment";
      match src.[!i] with
      | '\n' ->
          incr line;
          incr i;
          go depth
      | '(' when peek 1 = Some '*' ->
          i := !i + 2;
          go (depth + 1)
      | '*' when peek 1 = Some ')' ->
          i := !i + 2;
          if depth > 1 then go (depth - 1)
      | _ ->
          incr i;
          go depth
    in
    i := !i + 2;
    go 1
  in
  let lex_number ~neg =
    let start = !i in
    if neg then incr i;
    let is_hexfloat = ref false in
    if !i + 1 < n && src.[!i] = '0' && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X')
    then begin
      i := !i + 2;
      while !i < n && is_hex src.[!i] do incr i done;
      if !i < n && src.[!i] = '.' then begin
        is_hexfloat := true;
        incr i;
        while !i < n && is_hex src.[!i] do incr i done
      end;
      if !i < n && (src.[!i] = 'p' || src.[!i] = 'P') then begin
        is_hexfloat := true;
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end
    end
    else begin
      while !i < n && is_digit src.[!i] do incr i done;
      if !i < n && src.[!i] = '.' && peek 1 <> Some ' ' then begin
        is_hexfloat := true;
        incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end
    end;
    let lexeme = String.sub src start (!i - start) in
    if !is_hexfloat then
      match float_of_string_opt lexeme with
      | Some f -> emit (FLOAT f)
      | None -> fail !line "bad float literal %S" lexeme
    else
      match int_of_string_opt lexeme with
      | Some v -> emit (INT v)
      | None -> fail !line "bad integer literal %S" lexeme
  in
  let lex_string () =
    incr i;
    let b = Buffer.create 32 in
    let rec go () =
      if !i >= n then fail !line "unterminated string literal";
      match src.[!i] with
      | '"' -> incr i
      | '\\' ->
          if !i + 1 >= n then fail !line "unterminated escape";
          (match src.[!i + 1] with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | ('\\' | '"' | '\'') as c -> Buffer.add_char b c
          | c when is_digit c ->
              if !i + 3 >= n then fail !line "unterminated escape";
              let d = String.sub src (!i + 1) 3 in
              (match int_of_string_opt d with
              | Some v when v < 256 ->
                  Buffer.add_char b (Char.chr v);
                  i := !i + 2
              | _ -> fail !line "bad escape \\%s" d)
          | c -> fail !line "unsupported escape \\%c" c);
          i := !i + 2;
          go ()
      | c ->
          if c = '\n' then incr line;
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    emit (STRING (Buffer.contents b))
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin
      incr line;
      incr i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '(' && peek 1 = Some '*' then skip_comment ()
    else if c = '(' then begin
      emit LPAREN;
      incr i
    end
    else if c = ')' then begin
      emit RPAREN;
      incr i
    end
    else if c = ',' then begin
      emit COMMA;
      incr i
    end
    else if c = ';' then begin
      emit SEMI;
      incr i
    end
    else if c = ':' then begin
      emit COLON;
      incr i
    end
    else if c = '=' then begin
      emit EQUAL;
      incr i
    end
    else if c = '!' then begin
      emit BANG;
      incr i
    end
    else if c = '>' then begin
      emit (OP ">");
      incr i
    end
    else if c = '"' then lex_string ()
    else if is_digit c then lex_number ~neg:false
    else if c = '-' then
      match peek 1 with
      | Some '.' ->
          emit (OP "-.");
          i := !i + 2
      | Some d when is_digit d -> lex_number ~neg:true
      | _ ->
          emit (OP "-");
          incr i
    else if c = '+' then
      match peek 1 with
      | Some '.' ->
          emit (OP "+.");
          i := !i + 2
      | _ ->
          emit (OP "+");
          incr i
    else if (c = '*' || c = '/') && peek 1 = Some '.' then begin
      emit (OP (String.make 1 c ^ "."));
      i := !i + 2
    end
    else if c = '*' || c = '/' then begin
      emit (OP (String.make 1 c));
      incr i
    end
    else if is_ident_start c then begin
      let start = !i in
      let continue = ref true in
      while !continue do
        incr i;
        while !i < n && is_ident_char src.[!i] do incr i done;
        (* a dot glued to a further ident extends the path *)
        if !i + 1 < n && src.[!i] = '.' && is_ident_start src.[!i + 1] then
          incr i
        else continue := false
      done;
      emit (IDENT (String.sub src start (!i - start)))
    end
    else fail !line "unexpected character %C" c
  done;
  emit EOF;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over exactly the emitted unit shape       *)

type parser_state = { toks : (token * int) array; mutable pos : int }

let peek p = fst p.toks.(p.pos)

let peek2 p =
  if p.pos + 1 < Array.length p.toks then fst p.toks.(p.pos + 1) else EOF

let line_at p = snd p.toks.(p.pos)

let next p =
  let t = p.toks.(p.pos) in
  if p.pos + 1 < Array.length p.toks then p.pos <- p.pos + 1;
  t

let tok_str = function
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | SEMI -> ";"
  | COLON -> ":"
  | EQUAL -> "="
  | BANG -> "!"
  | INT v -> string_of_int v
  | FLOAT f -> Printf.sprintf "%h" f
  | IDENT s -> s
  | STRING s -> Printf.sprintf "%S" s
  | OP s -> s
  | EOF -> "<eof>"

let expect p want =
  let t, l = next p in
  if t <> want then fail l "expected %s, found %s" (tok_str want) (tok_str t)

let expect_ident p name =
  let t, l = next p in
  match t with
  | IDENT s when s = name -> ()
  | t -> fail l "expected %s, found %s" name (tok_str t)

let expect_idents p names = List.iter (expect_ident p) names

let all_digits s = s <> "" && String.for_all is_digit s

(* [dN]/[tN]/[rN] slot names *)
let slot_of ~prefix ident line =
  let len = String.length ident in
  if len < 2 || ident.[0] <> prefix || not (all_digits (String.sub ident 1 (len - 1)))
  then fail line "expected a %c<slot> name, found %s" prefix ident
  else int_of_string (String.sub ident 1 (len - 1))

(* [bC_J]/[cC_J] tape names: class [C], logical ring row [J] *)
let pair_of ~prefix ident line =
  let bad () = fail line "expected a %c<class>_<row> name, found %s" prefix ident in
  let len = String.length ident in
  if len < 4 || ident.[0] <> prefix then bad ()
  else
    match String.index_opt ident '_' with
    | None -> bad ()
    | Some u ->
        let a = String.sub ident 1 (u - 1)
        and b = String.sub ident (u + 1) (len - u - 1) in
        if all_digits a && all_digits b then (int_of_string a, int_of_string b)
        else bad ()

let is_pair_name c s =
  String.length s >= 4 && s.[0] = c && String.contains s '_'

let parse_int_lit p =
  match next p with
  | INT v, _ -> v
  | LPAREN, _ -> (
      match next p with
      | INT v, _ ->
          expect p RPAREN;
          v
      | t, l -> fail l "expected an integer literal, found %s" (tok_str t))
  | t, l -> fail l "expected an integer literal, found %s" (tok_str t)

let expect_int p v = expect p (INT v)

(* [k + LIT)] -- the lane index of a tape read, closing paren included *)
let parse_lane p =
  expect_ident p "k";
  expect p (OP "+");
  let v = parse_int_lit p in
  expect p RPAREN;
  v

(* one load: the tokens after "(Bigarray.Array1.unsafe_get" *)
let parse_load p =
  let data =
    match next p with
    | IDENT s, l -> slot_of ~prefix:'d' s l
    | t, l -> fail l "expected a data handle, found %s" (tok_str t)
  in
  expect p LPAREN;
  match next p with
  | IDENT s, l when is_pair_name 'b' s -> (
      (* a tape load, read in place at a ring row's base *)
      let base = pair_of ~prefix:'b' s l in
      expect p (OP "+");
      match next p with
      | IDENT "k", _ ->
          expect p (OP "+");
          let shift = parse_int_lit p in
          expect p RPAREN;
          Lane_unit { data; base; shift }
      | IDENT "Array.unsafe_get", _ ->
          let tab =
            match next p with
            | IDENT s, l -> slot_of ~prefix:'t' s l
            | t, l -> fail l "expected an offset table, found %s" (tok_str t)
          in
          expect p LPAREN;
          expect_ident p "x0";
          expect p (OP "+");
          let shift = parse_lane p in
          expect p RPAREN;
          Lane_tab { data; base; tab; shift }
      | t, l -> fail l "expected k or a table access, found %s" (tok_str t))
  | IDENT s, l -> (
      let row = slot_of ~prefix:'r' s l in
      expect p (OP "+");
      match peek p with
      | IDENT "x" ->
          ignore (next p);
          expect p (OP "+");
          let shift = parse_int_lit p in
          expect p RPAREN;
          Unit_addr { data; row; shift }
      | IDENT "Array.unsafe_get" ->
          ignore (next p);
          let tab =
            match next p with
            | IDENT s, l -> slot_of ~prefix:'t' s l
            | t, l -> fail l "expected an offset table, found %s" (tok_str t)
          in
          expect p LPAREN;
          expect_ident p "x";
          expect p (OP "+");
          let shift = parse_int_lit p in
          expect p RPAREN;
          expect p RPAREN;
          Tab_addr { data; row; tab; shift }
      | t -> fail (line_at p) "expected x or a table access, found %s" (tok_str t))
  | t, l -> fail l "expected a row base, found %s" (tok_str t)

(* expressions, with OCaml's float-operator precedence: [*.]/[/.] bind
   tighter than [+.]/[-.], all left-associated *)
let rec parse_expr p = parse_add p

and parse_add p =
  let lhs = ref (parse_mul p) in
  let continue = ref true in
  while !continue do
    match peek p with
    | OP "+." ->
        ignore (next p);
        lhs := Bin (Add, !lhs, parse_mul p)
    | OP "-." ->
        ignore (next p);
        lhs := Bin (Sub, !lhs, parse_mul p)
    | _ -> continue := false
  done;
  !lhs

and parse_mul p =
  let lhs = ref (parse_primary p) in
  let continue = ref true in
  while !continue do
    match peek p with
    | OP "*." ->
        ignore (next p);
        lhs := Bin (Mul, !lhs, parse_primary p)
    | OP "/." ->
        ignore (next p);
        lhs := Bin (Div, !lhs, parse_primary p)
    | _ -> continue := false
  done;
  !lhs

and parse_primary p =
  match next p with
  | FLOAT f, _ -> Lit f
  | IDENT "infinity", _ -> Lit infinity
  | IDENT "neg_infinity", _ -> Lit neg_infinity
  | IDENT "nan", _ -> Lit nan
  | INT v, l ->
      fail l "integer literal %d in a float expression" v
  | LPAREN, _ -> (
      match peek p with
      | OP "-." ->
          ignore (next p);
          let e = parse_expr p in
          expect p RPAREN;
          Neg e
      | IDENT "Bigarray.Array1.unsafe_get" ->
          ignore (next p);
          let a = parse_load p in
          expect p RPAREN;
          Get a
      | IDENT "Array.unsafe_get" ->
          (* a ring buffer read: (Array.unsafe_get cC_J (k + lane)) *)
          ignore (next p);
          let cls, row =
            match next p with
            | IDENT s, l -> pair_of ~prefix:'c' s l
            | t, l -> fail l "expected a ring buffer, found %s" (tok_str t)
          in
          expect p LPAREN;
          let lane = parse_lane p in
          expect p RPAREN;
          Buf { cls; row; lane }
      | IDENT "Float.min" ->
          ignore (next p);
          let a = parse_primary p in
          let b = parse_primary p in
          expect p RPAREN;
          Fmin (a, b)
      | IDENT "Float.max" ->
          ignore (next p);
          let a = parse_primary p in
          let b = parse_primary p in
          expect p RPAREN;
          Fmax (a, b)
      | IDENT "if" ->
          (* the branchless compare-select: (if c > 0.0 then a else b) *)
          ignore (next p);
          let c = parse_primary p in
          expect p (OP ">");
          (match next p with
          | FLOAT f, _ when Int64.bits_of_float f = 0L -> ()
          | t, l ->
              fail l "select compares against %s, expected literal 0.0"
                (tok_str t));
          expect_ident p "then";
          let a = parse_primary p in
          expect_ident p "else";
          let b = parse_primary p in
          expect p RPAREN;
          Sel (c, a, b)
      | FLOAT f when peek2 p = RPAREN ->
          ignore (next p);
          ignore (next p);
          Lit f
      | _ ->
          let e = parse_expr p in
          expect p RPAREN;
          e)
  | t, l -> fail l "expected an expression, found %s" (tok_str t)

(* prelude bindings: [let dN = Array.unsafe_get slot_data N in], the
   tape's [let bC_J = Array.unsafe_get (Array.unsafe_get lbase I) J
   [+ x0] in] and [let cC_J = Array.unsafe_get (Array.unsafe_get set C)
   ((Array.unsafe_get head C + P) mod D) in] *)
let parse_binds p =
  let binds = ref [] in
  let is_slot_name s =
    String.length s >= 2
    && (s.[0] = 'd' || s.[0] = 't' || s.[0] = 'r')
    && all_digits (String.sub s 1 (String.length s - 1))
  in
  let inner p arr =
    (* (Array.unsafe_get <arr> N) *)
    expect p LPAREN;
    expect_ident p "Array.unsafe_get";
    expect_ident p arr;
    let v = parse_int_lit p in
    expect p RPAREN;
    v
  in
  let continue = ref true in
  while !continue do
    match (peek p, peek2 p) with
    | IDENT "let", IDENT name when is_pair_name 'b' name ->
        ignore (next p);
        let _, l = next p in
        let cls, row = pair_of ~prefix:'b' name l in
        expect p EQUAL;
        expect_ident p "Array.unsafe_get";
        let load = inner p "lbase" in
        let lrow = parse_int_lit p in
        let x0 =
          match peek p with
          | OP "+" ->
              ignore (next p);
              expect_ident p "x0";
              true
          | _ -> false
        in
        expect_ident p "in";
        binds := Bind_base { cls; row; load; lrow; x0 } :: !binds
    | IDENT "let", IDENT name when is_pair_name 'c' name ->
        ignore (next p);
        let _, l = next p in
        let cls, row = pair_of ~prefix:'c' name l in
        expect p EQUAL;
        expect_ident p "Array.unsafe_get";
        let set = inner p "set" in
        expect p LPAREN;
        expect p LPAREN;
        expect_ident p "Array.unsafe_get";
        expect_ident p "head";
        let head = parse_int_lit p in
        expect p (OP "+");
        let phys = parse_int_lit p in
        expect p RPAREN;
        expect_ident p "mod";
        let len = parse_int_lit p in
        expect p RPAREN;
        expect_ident p "in";
        binds := Bind_ring { cls; row; set; head; phys; len } :: !binds
    | IDENT "let", IDENT name when is_slot_name name ->
        ignore (next p);
        let _, l = next p in
        expect p EQUAL;
        expect_ident p "Array.unsafe_get";
        let src_arr =
          match next p with
          | IDENT s, _ -> s
          | t, l -> fail l "expected a source array, found %s" (tok_str t)
        in
        let src = parse_int_lit p in
        expect_ident p "in";
        let b =
          match (name.[0], src_arr) with
          | 'd', "slot_data" ->
              Bind_data { name = slot_of ~prefix:'d' name l; src }
          | 't', "slot_tab" -> Bind_tab { name = slot_of ~prefix:'t' name l; src }
          | 'r', "row" -> Bind_row { name = slot_of ~prefix:'r' name l; src }
          | _ ->
              fail l "binding %s reads %s (wrong source array)" name src_arr
        in
        binds := b :: !binds
    | _ -> continue := false
  done;
  List.rev !binds

let parse_ignores p names =
  List.iter
    (fun n ->
      expect_ident p "ignore";
      expect_ident p n;
      expect p SEMI)
    names

let param p name tys =
  expect p LPAREN;
  expect_ident p name;
  expect p COLON;
  expect_idents p tys;
  expect p RPAREN

let ty_farr = [ "farr"; "array" ]
and ty_tab = [ "int"; "array"; "array" ]
and ty_sets = [ "float"; "array"; "array"; "array"; "array" ]

(* [for k = 0 to n + SPAN - 1 do Array.unsafe_set cC_J k (e) done;] *)
let parse_loop p =
  expect_idents p [ "for"; "k" ];
  expect p EQUAL;
  expect_int p 0;
  expect_idents p [ "to"; "n" ];
  expect p (OP "+");
  let span = parse_int_lit p in
  expect p (OP "-");
  expect_int p 1;
  expect_ident p "do";
  expect_ident p "Array.unsafe_set";
  let cls, row =
    match next p with
    | IDENT s, l -> pair_of ~prefix:'c' s l
    | t, l -> fail l "expected a ring buffer, found %s" (tok_str t)
  in
  expect_ident p "k";
  let body = parse_primary p in
  expect_ident p "done";
  expect p SEMI;
  { cls; row; span; body }

(* one class: [if not stream then begin <loops> () end;] <lead loop> *)
let parse_blocks p =
  let blocks = ref [] in
  let continue = ref true in
  while !continue do
    match peek p with
    | IDENT "if" ->
        expect_idents p [ "if"; "not"; "stream"; "then"; "begin" ];
        let restart = ref [] in
        while peek p = IDENT "for" do
          restart := parse_loop p :: !restart
        done;
        expect p LPAREN;
        expect p RPAREN;
        expect_ident p "end";
        expect p SEMI;
        let lead = parse_loop p in
        blocks := { restart = List.rev !restart; lead } :: !blocks
    | IDENT "for" -> blocks := { restart = []; lead = parse_loop p } :: !blocks
    | _ -> continue := false
  done;
  List.rev !blocks

(* the output loop of [kern_row] over [xb, xe) (FMA-chain body) or
   over one strip (tape body) *)
let parse_out p ~tape =
  let loop_head () =
    expect_idents p [ "for"; (if tape then "k" else "x") ];
    expect p EQUAL;
    if tape then begin
      expect_int p 0;
      expect_idents p [ "to"; "n" ]
    end
    else expect_idents p [ "xb"; "to"; "xe" ];
    expect p (OP "-");
    expect p (INT 1);
    expect_ident p "do";
    expect_ident p "Bigarray.Array1.unsafe_set";
    expect_ident p "out"
  in
  match peek p with
  | IDENT "let" when tape ->
      (* unit-stride output: the strip's flat base *)
      expect_idents p [ "let"; "ob" ];
      expect p EQUAL;
      expect_ident p "out_row";
      expect p (OP "+");
      let lp = parse_int_lit p in
      expect p (OP "+");
      expect_idents p [ "x0"; "in" ];
      loop_head ();
      expect p LPAREN;
      expect_ident p "ob";
      expect p (OP "+");
      expect_ident p "k";
      expect p RPAREN;
      let e = parse_primary p in
      expect_ident p "done";
      (Out_unit { lp }, e)
  | IDENT "let" ->
      (* unit-stride output: a running flat offset *)
      expect_idents p [ "let"; "off" ];
      expect p EQUAL;
      expect_ident p "ref";
      expect p LPAREN;
      expect_ident p "out_row";
      expect p (OP "+");
      let lp = parse_int_lit p in
      expect p (OP "+");
      expect_ident p "xb";
      expect p RPAREN;
      expect_ident p "in";
      loop_head ();
      expect p BANG;
      expect_ident p "off";
      let e = parse_primary p in
      expect p SEMI;
      expect_idents p [ "incr"; "off"; "done" ];
      (Out_unit { lp }, e)
  | IDENT "for" ->
      (* table-indexed output *)
      loop_head ();
      expect p LPAREN;
      expect_ident p "out_row";
      expect p (OP "+");
      expect_ident p "Array.unsafe_get";
      expect_ident p "out_tab";
      expect p LPAREN;
      if tape then begin
        expect_ident p "x0";
        expect p (OP "+");
        expect_ident p "k"
      end
      else expect_ident p "x";
      expect p (OP "+");
      let lp = parse_int_lit p in
      expect p RPAREN;
      expect p RPAREN;
      let e = parse_primary p in
      expect_ident p "done";
      (Out_tab { lp }, e)
  | t -> fail (line_at p) "expected the output loop, found %s" (tok_str t)

(* [strip slot_data slot_tab lbase head set <stream> <x0> <n>;] *)
let parse_strip_call p ~stream ~x0 ~n =
  expect_idents p [ "strip"; "slot_data"; "slot_tab"; "lbase"; "head"; "set" ];
  expect_ident p stream;
  expect_ident p x0;
  (match n with `Int v -> expect_int p v | `Id s -> expect_ident p s);
  expect p SEMI

let same_binds what line a b =
  if a <> b then fail line "%s binds differ from the strip's" what

(* [let strip ... = <binds> <class blocks> ()] *)
let parse_strip_fn p =
  expect_idents p [ "let"; "strip" ];
  param p "slot_data" ty_farr;
  param p "slot_tab" ty_tab;
  param p "lbase" ty_tab;
  param p "head" [ "int"; "array" ];
  param p "set" [ "float"; "array"; "array"; "array" ];
  param p "stream" [ "bool" ];
  param p "x0" [ "int" ];
  param p "n" [ "int" ];
  expect p COLON;
  expect_ident p "unit";
  expect p EQUAL;
  parse_ignores p
    [ "slot_data"; "slot_tab"; "lbase"; "head"; "set"; "stream"; "x0"; "n" ];
  let binds = parse_binds p in
  let blocks = parse_blocks p in
  expect p LPAREN;
  expect p RPAREN;
  (binds, blocks)

let parse_unit_toks p =
  (* type farr = (float, Bigarray.float64_elt, Bigarray.c_layout)
     Bigarray.Array1.t *)
  expect_idents p [ "type"; "farr" ];
  expect p EQUAL;
  expect p LPAREN;
  expect_ident p "float";
  expect p COMMA;
  expect_ident p "Bigarray.float64_elt";
  expect p COMMA;
  expect_ident p "Bigarray.c_layout";
  expect p RPAREN;
  expect_ident p "Bigarray.Array1.t";
  let strip_fn =
    if peek p = IDENT "let" && peek2 p = IDENT "strip" then
      Some (parse_strip_fn p)
    else None
  in
  (* kern_point *)
  expect_idents p [ "let"; "kern_point" ];
  param p "slot_data" ty_farr;
  param p "slot_tab" ty_tab;
  param p "row" [ "int"; "array" ];
  param p "lbase" ty_tab;
  param p "head" [ "int"; "array" ];
  param p "sets" ty_sets;
  param p "x" [ "int" ];
  expect p COLON;
  expect_ident p "float";
  expect p EQUAL;
  let point_binds, point_expr =
    match strip_fn with
    | None ->
        let binds = parse_binds p in
        parse_ignores p
          [ "slot_data"; "slot_tab"; "row"; "lbase"; "head"; "sets"; "x" ];
        (binds, parse_primary p)
    | Some (binds, _) ->
        parse_ignores p [ "row" ];
        expect_idents p [ "let"; "set" ];
        expect p EQUAL;
        expect_idents p [ "Array.unsafe_get"; "sets" ];
        expect_int p 0;
        expect_ident p "in";
        parse_strip_call p ~stream:"false" ~x0:"x" ~n:(`Int 1);
        expect_idents p [ "let"; "x0" ];
        expect p EQUAL;
        expect_idents p [ "x"; "in"; "let"; "k" ];
        expect p EQUAL;
        expect_int p 0;
        expect_ident p "in";
        let line = line_at p in
        same_binds "kern_point" line binds (parse_binds p);
        ([], parse_primary p)
  in
  (* kern_row *)
  expect_idents p [ "let"; "kern_row" ];
  param p "slot_data" ty_farr;
  param p "slot_tab" ty_tab;
  param p "out" [ "farr" ];
  param p "out_tab" [ "int"; "array" ];
  param p "row" [ "int"; "array" ];
  param p "out_row" [ "int" ];
  param p "lbase" ty_tab;
  param p "head" [ "int"; "array" ];
  param p "sets" ty_sets;
  param p "stream" [ "bool" ];
  param p "xb" [ "int" ];
  param p "xe" [ "int" ];
  expect p COLON;
  expect_ident p "unit";
  expect p EQUAL;
  let row_binds, row_out, row_expr, tape =
    match strip_fn with
    | None ->
        parse_ignores p
          [ "slot_data"; "slot_tab"; "out_tab"; "row"; "lbase"; "head";
            "sets"; "stream" ];
        let binds = parse_binds p in
        let out, e = parse_out p ~tape:false in
        (binds, out, e, None)
    | Some (binds, blocks) ->
        (* for p = 0 to ((xe - xb + S-1) / S) - 1 do, strips of S *)
        parse_ignores p [ "out_tab"; "row" ];
        expect_idents p [ "for"; "p" ];
        expect p EQUAL;
        expect_int p 0;
        expect_ident p "to";
        expect p LPAREN;
        expect p LPAREN;
        expect_ident p "xe";
        expect p (OP "-");
        expect_ident p "xb";
        expect p (OP "+");
        let line = line_at p in
        let s1 = parse_int_lit p in
        expect p RPAREN;
        expect p (OP "/");
        let strip = parse_int_lit p in
        if s1 <> strip - 1 then
          fail line "strip count rounds %d up by %d, not by strip - 1" strip s1;
        expect p RPAREN;
        expect p (OP "-");
        expect_int p 1;
        expect_ident p "do";
        (* let x0 = xb + (p * S) in let n = min S (xe - x0) in *)
        expect_idents p [ "let"; "x0" ];
        expect p EQUAL;
        expect_ident p "xb";
        expect p (OP "+");
        expect p LPAREN;
        expect_ident p "p";
        expect p (OP "*");
        expect_int p strip;
        expect p RPAREN;
        expect_idents p [ "in"; "let"; "n" ];
        expect p EQUAL;
        expect_ident p "min";
        expect_int p strip;
        expect p LPAREN;
        expect_ident p "xe";
        expect p (OP "-");
        expect_ident p "x0";
        expect p RPAREN;
        expect_idents p [ "in"; "let"; "set" ];
        expect p EQUAL;
        expect_idents p [ "Array.unsafe_get"; "sets"; "p"; "in" ];
        parse_strip_call p ~stream:"stream" ~x0:"x0" ~n:(`Id "n");
        let line = line_at p in
        same_binds "kern_row" line binds (parse_binds p);
        let out, e = parse_out p ~tape:true in
        expect_ident p "done";
        ([], out, e, Some { strip; binds; blocks })
  in
  (* let () = Callback.register "name" (kern_row, kern_point) *)
  expect_ident p "let";
  expect p LPAREN;
  expect p RPAREN;
  expect p EQUAL;
  expect_ident p "Callback.register";
  let reg_name =
    match next p with
    | STRING s, _ -> s
    | t, l -> fail l "expected the registration name, found %s" (tok_str t)
  in
  expect p LPAREN;
  expect_ident p "kern_row";
  expect p COMMA;
  expect_ident p "kern_point";
  expect p RPAREN;
  (match next p with
  | EOF, _ -> ()
  | t, l -> fail l "trailing tokens after the registration: %s" (tok_str t));
  { point_binds; point_expr; row_binds; row_out; row_expr; tape; reg_name }

let parse src =
  match parse_unit_toks { toks = tokenize src; pos = 0 } with
  | ast -> Ok ast
  | exception Reject (msg, line) -> Error (msg, line)

(* ------------------------------------------------------------------ *)
(* Printer: re-emit an AST in Codegen's source shape (the miscompile
   injector mutates ASTs and prints them back through this)            *)

let float_lit c =
  if c <> c then "nan"
  else if c = infinity then "infinity"
  else if c = neg_infinity then "neg_infinity"
  else Printf.sprintf "(%h)" c

let int_lit n = if n < 0 then Printf.sprintf "(%d)" n else string_of_int n

let rec expr_str = function
  | Lit c -> float_lit c
  | Get (Unit_addr { data; row; shift }) ->
      Printf.sprintf "(Bigarray.Array1.unsafe_get d%d (r%d + x + %s))" data
        row (int_lit shift)
  | Get (Tab_addr { data; row; tab; shift }) ->
      Printf.sprintf
        "(Bigarray.Array1.unsafe_get d%d (r%d + Array.unsafe_get t%d (x + \
         %s)))"
        data row tab (int_lit shift)
  | Get (Lane_unit { data; base = c, j; shift }) ->
      Printf.sprintf "(Bigarray.Array1.unsafe_get d%d (b%d_%d + k + %s))" data
        c j (int_lit shift)
  | Get (Lane_tab { data; base = c, j; tab; shift }) ->
      Printf.sprintf
        "(Bigarray.Array1.unsafe_get d%d (b%d_%d + Array.unsafe_get t%d (x0 \
         + k + %s)))"
        data c j tab (int_lit shift)
  | Buf { cls; row; lane } ->
      Printf.sprintf "(Array.unsafe_get c%d_%d (k + %s))" cls row
        (int_lit lane)
  | Neg e -> Printf.sprintf "(-. %s)" (expr_str e)
  | Bin (op, a, b) ->
      let o =
        match op with Add -> "+." | Sub -> "-." | Mul -> "*." | Div -> "/."
      in
      Printf.sprintf "(%s %s %s)" (expr_str a) o (expr_str b)
  | Fmin (a, b) -> Printf.sprintf "(Float.min %s %s)" (expr_str a) (expr_str b)
  | Fmax (a, b) -> Printf.sprintf "(Float.max %s %s)" (expr_str a) (expr_str b)
  | Sel (c, a, b) ->
      Printf.sprintf "(if %s > 0.0 then %s else %s)" (expr_str c) (expr_str a)
        (expr_str b)

let bind_str = function
  | Bind_data { name; src } ->
      Printf.sprintf "  let d%d = Array.unsafe_get slot_data %d in\n" name src
  | Bind_tab { name; src } ->
      Printf.sprintf "  let t%d = Array.unsafe_get slot_tab %d in\n" name src
  | Bind_row { name; src } ->
      Printf.sprintf "  let r%d = Array.unsafe_get row %d in\n" name src
  | Bind_base { cls; row; load; lrow; x0 } ->
      Printf.sprintf
        "  let b%d_%d = Array.unsafe_get (Array.unsafe_get lbase %d) %d%s in\n"
        cls row load lrow
        (if x0 then " + x0" else "")
  | Bind_ring { cls; row; set; head; phys; len } ->
      Printf.sprintf
        "  let c%d_%d =\n\
        \    Array.unsafe_get (Array.unsafe_get set %d)\n\
        \      ((Array.unsafe_get head %d + %d) mod %d) in\n"
        cls row set head phys len

let loop_str (l : loop) =
  Printf.sprintf
    "  for k = 0 to n + %d - 1 do\n\
    \    Array.unsafe_set c%d_%d k (%s)\n\
    \  done;\n"
    l.span l.cls l.row (expr_str l.body)

let farr_decl =
  "type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) \
   Bigarray.Array1.t\n\n"

let point_head =
  "let kern_point (slot_data : farr array) (slot_tab : int array array)\n\
  \    (row : int array) (lbase : int array array) (head : int array)\n\
  \    (sets : float array array array array) (x : int) : float =\n"

let row_head =
  "let kern_row (slot_data : farr array) (slot_tab : int array array)\n\
  \    (out : farr) (out_tab : int array) (row : int array) (out_row : int)\n\
  \    (lbase : int array array) (head : int array)\n\
  \    (sets : float array array array array) (stream : bool) (xb : int)\n\
  \    (xe : int) : unit =\n"

let print_groups b ast =
  Buffer.add_string b point_head;
  List.iter (fun bd -> Buffer.add_string b (bind_str bd)) ast.point_binds;
  Buffer.add_string b
    "  ignore slot_data; ignore slot_tab; ignore row; ignore lbase;\n\
    \  ignore head; ignore sets; ignore x;\n";
  Printf.bprintf b "  (%s)\n\n" (expr_str ast.point_expr);
  Buffer.add_string b row_head;
  Buffer.add_string b
    "  ignore slot_data; ignore slot_tab; ignore out_tab; ignore row;\n\
    \  ignore lbase; ignore head; ignore sets; ignore stream;\n";
  List.iter (fun bd -> Buffer.add_string b (bind_str bd)) ast.row_binds;
  match ast.row_out with
  | Out_unit { lp } ->
      Printf.bprintf b "  let off = ref (out_row + %s + xb) in\n" (int_lit lp);
      Buffer.add_string b "  for x = xb to xe - 1 do\n";
      Printf.bprintf b "    Bigarray.Array1.unsafe_set out !off (%s);\n"
        (expr_str ast.row_expr);
      Buffer.add_string b "    incr off\n  done\n\n"
  | Out_tab { lp } ->
      Buffer.add_string b "  for x = xb to xe - 1 do\n";
      Printf.bprintf b
        "    Bigarray.Array1.unsafe_set out (out_row + Array.unsafe_get \
         out_tab (x + %s)) (%s)\n"
        (int_lit lp) (expr_str ast.row_expr);
      Buffer.add_string b "  done\n\n"

let print_tape b ast t =
  let binds () = List.iter (fun bd -> Buffer.add_string b (bind_str bd)) t.binds in
  Buffer.add_string b
    "let strip (slot_data : farr array) (slot_tab : int array array)\n\
    \    (lbase : int array array) (head : int array)\n\
    \    (set : float array array array) (stream : bool) (x0 : int) (n : int)\n\
    \    : unit =\n\
    \  ignore slot_data; ignore slot_tab; ignore lbase; ignore head;\n\
    \  ignore set; ignore stream; ignore x0; ignore n;\n";
  binds ();
  List.iter
    (fun blk ->
      if blk.restart <> [] then begin
        Buffer.add_string b "  if not stream then begin\n";
        List.iter (fun l -> Buffer.add_string b (loop_str l)) blk.restart;
        Buffer.add_string b "  () end;\n"
      end;
      Buffer.add_string b (loop_str blk.lead))
    t.blocks;
  Buffer.add_string b "  ()\n\n";
  Buffer.add_string b point_head;
  Buffer.add_string b
    "  ignore row;\n\
    \  let set = Array.unsafe_get sets 0 in\n\
    \  strip slot_data slot_tab lbase head set false x 1;\n\
    \  let x0 = x in\n\
    \  let k = 0 in\n";
  binds ();
  Printf.bprintf b "  (%s)\n\n" (expr_str ast.point_expr);
  Buffer.add_string b row_head;
  Printf.bprintf b
    "  ignore out_tab; ignore row;\n\
    \  for p = 0 to ((xe - xb + %d) / %d) - 1 do\n\
    \  let x0 = xb + (p * %d) in\n\
    \  let n = min %d (xe - x0) in\n\
    \  let set = Array.unsafe_get sets p in\n\
    \  strip slot_data slot_tab lbase head set stream x0 n;\n"
    (t.strip - 1) t.strip t.strip t.strip;
  binds ();
  (match ast.row_out with
  | Out_unit { lp } ->
      Printf.bprintf b "  let ob = out_row + %s + x0 in\n" (int_lit lp);
      Printf.bprintf b
        "  for k = 0 to n - 1 do\n\
        \    Bigarray.Array1.unsafe_set out (ob + k) (%s)\n\
        \  done\n"
        (expr_str ast.row_expr)
  | Out_tab { lp } ->
      Printf.bprintf b
        "  for k = 0 to n - 1 do\n\
        \    Bigarray.Array1.unsafe_set out\n\
        \      (out_row + Array.unsafe_get out_tab (x0 + k + %s)) (%s)\n\
        \  done\n"
        (int_lit lp) (expr_str ast.row_expr));
  Buffer.add_string b "  done\n\n"

let print ?(header = "yasksite kernel unit reprinted from the checked AST")
    ast =
  let b = Buffer.create 4096 in
  Printf.bprintf b "(* %s *)\n\n" header;
  Buffer.add_string b farr_decl;
  (match ast.tape with
  | None -> print_groups b ast
  | Some t -> print_tape b ast t);
  Printf.bprintf b "let () = Callback.register %S (kern_row, kern_point)\n"
    ast.reg_name;
  Buffer.contents b

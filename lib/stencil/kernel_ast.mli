(** The checked kernel AST: concrete syntax of the units {!Codegen}
    emits, with a parser and printer over exactly that grammar.

    A unit is a [farr] type alias, [kern_point]/[kern_row] and a
    [Callback.register]. An FMA-chain ({!Plan.Groups}) body is one
    fully parenthesized float expression per point over unsafe loads.
    A postfix ({!Plan.Program}) body is emitted from {!Lower}'s tape:
    a [strip] function holding one strip loop per shift class kept in a
    ring (with every class used once inlined into its user, and every
    load read in place at a ring row's base), each loop guarded so a
    restart computes every row of the class and a streamed row only
    its newest; the entry points run [strip] and evaluate the result
    class. {!parse} accepts precisely the emitted forms (hex-float
    literals, dotted stdlib paths, both output addressing modes) and
    nothing more; {!print} re-emits an AST in the generator's shape
    such that [parse (print ast) = Ok ast]. {!Codegen} builds the AST
    and prints it through here.

    Syntax lives here; judgment lives elsewhere: the YS6xx translation
    validator ({!Yasksite_lint.Native_lint}) compares parsed ASTs
    against a reference rebuilt from the plan (FMA chains) or its tape,
    and the seeded miscompile injector ({!Yasksite_faults.Miscompile})
    mutates them structurally — both share this one grammar without a
    dependency cycle. *)

type binop = Add | Sub | Mul | Div

type addr =
  | Unit_addr of { data : int; row : int; shift : int }
      (** [d<data>.(r<row> + x + shift)] — unit-stride grid *)
  | Tab_addr of { data : int; row : int; tab : int; shift : int }
      (** [d<data>.(r<row> + t<tab>.(x + shift))] — folded layout *)
  | Lane_unit of { data : int; base : int * int; shift : int }
      (** [d<data>.(b<c>_<j> + k + shift)] — a tape load of class [c]
          read in place on logical ring row [j] (the base binding
          already adds the strip start [x0]) *)
  | Lane_tab of { data : int; base : int * int; tab : int; shift : int }
      (** [d<data>.(b<c>_<j> + t<tab>.(x0 + k + shift))] *)

type expr =
  | Lit of float
  | Get of addr
  | Neg of expr
  | Bin of binop * expr * expr
  | Fmin of expr * expr  (** [(Float.min a b)] *)
  | Fmax of expr * expr  (** [(Float.max a b)] *)
  | Sel of expr * expr * expr
      (** [(if c > 0.0 then a else b)] — the emitted compare-select;
          the comparison literal is always exactly [+0.0] *)
  | Buf of { cls : int; row : int; lane : int }
      (** [c<cls>_<row>.(k + lane)] — a ring buffer read: class [cls] on
          logical ring row [row] *)

type bind =
  | Bind_data of { name : int; src : int }
      (** [let d<name> = slot_data.(src)] *)
  | Bind_tab of { name : int; src : int }
      (** [let t<name> = slot_tab.(src)] *)
  | Bind_row of { name : int; src : int }  (** [let r<name> = row.(src)] *)
  | Bind_base of { cls : int; row : int; load : int; lrow : int; x0 : bool }
      (** [let b<cls>_<row> = lbase.(load).(lrow) \[+ x0\]] — a load
          row's flat base ([+ x0] on unit-stride grids) *)
  | Bind_ring of {
      cls : int;
      row : int;
      set : int;
      head : int;
      phys : int;
      len : int;
    }
      (** [let c<cls>_<row> = set.(set).((head.(head) + phys) mod len)]
          — logical ring row [row] of a class's line buffers *)

type out_addr =
  | Out_unit of { lp : int }  (** unit-stride output, flat offset *)
  | Out_tab of { lp : int }  (** per-point [out_tab] lookup *)

type loop = { cls : int; row : int; span : int; body : expr }
(** [for k = 0 to n + span - 1 do c<cls>_<row>.(k) <- body done] *)

type block = { restart : loop list; lead : loop }
(** One ringed class: [restart] runs only when the rings restart
    ([if not stream]), [lead] (its newest row) always. *)

type tape_ast = { strip : int; binds : bind list; blocks : block list }
(** A tape body: the strip length, the bindings [strip], [kern_point]
    and [kern_row] share, and the class blocks in tape order. *)

type unit_ast = {
  point_binds : bind list;  (** FMA-chain bodies only *)
  point_expr : expr;
  row_binds : bind list;  (** FMA-chain bodies only *)
  row_out : out_addr;
  row_expr : expr;  (** per point, or per result lane [k] of a tape *)
  tape : tape_ast option;  (** [Some] for a tape body *)
  reg_name : string;  (** the [Callback.register] name *)
}

val parse : string -> (unit_ast, string * int) result
(** Parse an emitted kernel unit. [Error (reason, line)] when the
    source deviates from the generated grammar in any way. *)

val print : ?header:string -> unit_ast -> string
(** Emit an AST in the generator's source shape, under a leading
    comment [header]. [parse (print ast) = Ok ast] for every AST
    {!parse} returns. *)

val expr_str : expr -> string
(** One expression in emitted syntax (diagnostic rendering). *)

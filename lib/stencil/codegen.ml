module Grid = Yasksite_grid.Grid

(* Source-level specialization of a kernel plan: emit a self-contained
   OCaml compilation unit with every coefficient, last-dimension shift
   and pad folded into literals — no per-point dispatch, no table
   indirection on unit-stride grids. The unit depends on nothing but
   the stdlib, so a host can [Dynlink] it without sharing any cmi; the
   kernel pair is published through [Callback.register] under an
   ABI-versioned name. The source is built as a checked AST and
   printed through [Kernel_ast], the grammar the YS6xx validator parses
   back.

   Bit-identity contract: every expression below replays the exact
   IEEE-754 operation sequence of the plan interpreter (Lower):

   - FMA-chain bodies: a term is [v], [(-. v)] or [(c *. v)] by the
     same [1.0]/[-1.0] coefficient tests [Lower.term_val] applies;
     group sums and the group chain are left-associated [+.] chains,
     the order [Lower.point_groups] folds them in; a group's scale
     multiplies {e after} its sum;
   - postfix bodies are emitted from the interpreter's own tape
     ([Lower.tape_of_plan]): every shift class is the same operation
     over the same operand classes at the same row and lane offsets,
     so every lane holds the bits the tree computes. A class that more
     than one use reads gets a strip loop over each row of its ring (a
     restart computes them all, a streamed row only the newest, under
     the decision [Lower.begin_row] takes for both backends); a class
     read once is computed inside its user's loop, a load is read in
     place at its ring row's base, a constant is a literal;
   - coefficients render as hex-float literals ([%h]), which
     round-trip every finite double exactly; [nan] coefficients are
     refused (an emitted [nan] literal could lose the payload).

   Addressing matches [Lower.bind]'s decomposition: a per-row base
   (passed in through [row]/[out_row] or the rings' [lbase], computed
   by the caller's driver) plus a last-dimension offset — the
   precomputed table on folded layouts, or the index directly when the
   grid is unit-stride ({!Grid.unit_stride} holds exactly when the
   table is the identity). *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type kern_row =
  farr array ->
  int array array ->
  farr ->
  int array ->
  int array ->
  int ->
  int array array ->
  int array ->
  float array array array array ->
  bool ->
  int ->
  int ->
  unit

type kern_point =
  farr array ->
  int array array ->
  int array ->
  int array array ->
  int array ->
  float array array array array ->
  int ->
  float

type kern = { row : kern_row; point : kern_point }

(* v2: tape bodies; the ring storage and the restart decision joined
   both signatures. *)
let abi = 2

type variant = {
  slot_shift : int array;
  slot_unit : bool array;
  out_lp : int;
  out_unit : bool;
}

let variant_of ~(plan : Plan.t) ~inputs ~output =
  let r = plan.Plan.rank in
  let lp = Array.map (fun g -> (Grid.left_pad g).(r - 1)) inputs in
  let unit = Array.map Grid.unit_stride inputs in
  { slot_shift =
      Array.map
        (fun (a : Expr.access) -> a.Expr.offsets.(r - 1) + lp.(a.Expr.field))
        plan.Plan.accesses;
    slot_unit =
      Array.map (fun (a : Expr.access) -> unit.(a.Expr.field)) plan.Plan.accesses;
    out_lp = (Grid.left_pad output).(r - 1);
    out_unit = Grid.unit_stride output }

let key ~(plan : Plan.t) v =
  let b = Buffer.create 160 in
  Printf.bprintf b "yasksite-kern-abi%d|%s|sh:" abi plan.Plan.fingerprint;
  Array.iter (fun s -> Printf.bprintf b "%d," s) v.slot_shift;
  Buffer.add_string b "|su:";
  Array.iter (fun u -> Buffer.add_char b (if u then '1' else '0')) v.slot_unit;
  Printf.bprintf b "|olp:%d|ou:%b" v.out_lp v.out_unit;
  Digest.to_hex (Digest.string (Buffer.contents b))

let callback_name k = "yasksite-kern-v" ^ string_of_int abi ^ ":" ^ k

let unit_basename k = "yk_" ^ k

(* ---- emission ---- *)

module Ast = Kernel_ast

exception Unsupported of string

let lit c =
  if c <> c then raise (Unsupported "NaN coefficient (payload bits not emittable)")
  else Ast.Lit c

let chain_add = function
  | [] -> raise (Unsupported "empty sum")
  | e :: tl -> List.fold_left (fun acc x -> Ast.Bin (Ast.Add, acc, x)) e tl

let out_addr v =
  if v.out_unit then Ast.Out_unit { lp = v.out_lp } else Ast.Out_tab { lp = v.out_lp }

(* The data (and, on folded grids, table) bindings of the slots in
   [slots], in order. *)
let slot_binds v slots ~row =
  List.concat_map
    (fun s ->
      (Ast.Bind_data { name = s; src = s }
      :: (if v.slot_unit.(s) then [] else [ Ast.Bind_tab { name = s; src = s } ]))
      @ if row then [ Ast.Bind_row { name = s; src = s } ] else [])
    slots

(* ---- FMA-chain bodies: one expression per point ---- *)

let load v s =
  if s < 0 || s >= Array.length v.slot_shift then
    raise (Unsupported (Printf.sprintf "load of slot %d outside the access table" s));
  if v.slot_unit.(s) then
    Ast.Get (Ast.Unit_addr { data = s; row = s; shift = v.slot_shift.(s) })
  else Ast.Get (Ast.Tab_addr { data = s; row = s; tab = s; shift = v.slot_shift.(s) })

let term v (t : Plan.term) =
  if t.Plan.slot < 0 then lit t.Plan.coeff
  else if t.Plan.coeff = 1.0 then load v t.Plan.slot
  else if t.Plan.coeff = -1.0 then Ast.Neg (load v t.Plan.slot)
  else Ast.Bin (Ast.Mul, lit t.Plan.coeff, load v t.Plan.slot)

let group v (g : Plan.group) =
  if Array.length g.Plan.terms = 0 then raise (Unsupported "empty group");
  let sum = chain_add (Array.to_list (Array.map (term v) g.Plan.terms)) in
  match g.Plan.scale with None -> sum | Some s -> Ast.Bin (Ast.Mul, lit s, sum)

let groups_unit v gs ~reg_name =
  if Array.length gs = 0 then raise (Unsupported "empty plan body");
  let e = chain_add (Array.to_list (Array.map (group v) gs)) in
  let used = Array.make (Array.length v.slot_shift) false in
  Array.iter
    (fun (g : Plan.group) ->
      Array.iter
        (fun (t : Plan.term) -> if t.Plan.slot >= 0 then used.(t.Plan.slot) <- true)
        g.Plan.terms)
    gs;
  let slots = List.filter (fun s -> used.(s)) (List.init (Array.length used) Fun.id) in
  let binds = slot_binds v slots ~row:true in
  { Ast.point_binds = binds;
    point_expr = e;
    row_binds = binds;
    row_out = out_addr v;
    row_expr = e;
    tape = None;
    reg_name }

(* ---- postfix bodies: the tape ---- *)

let tape_unit v (t : Lower.tape) ~reg_name =
  let n = Array.length t.Lower.rows in
  let load_ix = Array.make n (-1) and node = Array.make n None in
  Array.iteri (fun i (l : Lower.load) -> load_ix.(l.Lower.ldst) <- i) t.Lower.loads;
  Array.iter (fun (nd : Lower.node) -> node.(nd.Lower.dst) <- Some nd) t.Lower.nodes;
  let ringed = Lower.ringed t in
  (* class [c] on logical ring row [j], at lane [k + kk] of the loop *)
  let rec ex ~top c j kk =
    match (t.Lower.consts.(c), node.(c)) with
    | Some x, _ -> lit x
    | None, _ when load_ix.(c) >= 0 ->
        let l = t.Lower.loads.(load_ix.(c)) in
        let s = l.Lower.slot in
        let shift = v.slot_shift.(s) + l.Lower.rel + kk in
        if v.slot_unit.(s) then Ast.Get (Ast.Lane_unit { data = s; base = (c, j); shift })
        else Ast.Get (Ast.Lane_tab { data = s; base = (c, j); tab = s; shift })
    | None, Some _ when ringed.(c) && not top -> Ast.Buf { cls = c; row = j; lane = kk }
    | None, Some nd -> (
        let arg (o, r, l) = ex ~top:false o (j + r) (kk + l) in
        match (nd.Lower.op, List.map arg (Lower.operands nd)) with
        | Lower.Neg, [ a ] -> Ast.Neg a
        | Lower.Add, [ a; b ] -> Ast.Bin (Ast.Add, a, b)
        | Lower.Sub, [ a; b ] -> Ast.Bin (Ast.Sub, a, b)
        | Lower.Mul, [ a; b ] -> Ast.Bin (Ast.Mul, a, b)
        | Lower.Div, [ a; b ] -> Ast.Bin (Ast.Div, a, b)
        | Lower.Min, [ a; b ] -> Ast.Fmin (a, b)
        | Lower.Max, [ a; b ] -> Ast.Fmax (a, b)
        | Lower.Sel, [ c; a; b ] -> Ast.Sel (c, a, b)
        | _ -> raise (Unsupported "operator arity"))
    | None, None -> raise (Unsupported (Printf.sprintf "class %d has no definition" c))
  in
  let loads = Array.to_list t.Lower.loads in
  let binds =
    slot_binds v (List.map (fun (l : Lower.load) -> l.Lower.slot) loads) ~row:false
    @ List.concat
        (List.mapi
           (fun i (l : Lower.load) ->
             let c = l.Lower.ldst in
             List.init t.Lower.rows.(c) (fun j ->
                 Ast.Bind_base
                   { cls = c;
                     row = j;
                     load = i;
                     lrow = j;
                     x0 = v.slot_unit.(l.Lower.slot) }))
           loads)
    @ List.concat_map
        (fun c ->
          if not ringed.(c) then []
          else
            let d = t.Lower.rows.(c) in
            List.init d (fun j ->
                Ast.Bind_ring { cls = c; row = j; set = c; head = c; phys = j; len = d }))
        (List.init n Fun.id)
  in
  let blocks =
    List.filter_map
      (fun (nd : Lower.node) ->
        let c = nd.Lower.dst in
        if not ringed.(c) then None
        else
          let loop j =
            { Ast.cls = c; row = j; span = nd.Lower.span; body = ex ~top:true c j 0 }
          in
          let d = t.Lower.rows.(c) in
          Some { Ast.restart = List.init (d - 1) loop; lead = loop (d - 1) })
      (Array.to_list t.Lower.nodes)
  in
  let e = ex ~top:true t.Lower.result 0 0 in
  { Ast.point_binds = [];
    point_expr = e;
    row_binds = [];
    row_out = out_addr v;
    row_expr = e;
    tape = Some { Ast.strip = Lower.strip; binds; blocks };
    reg_name }

let unit_of ~(plan : Plan.t) v ~reg_name =
  match plan.Plan.body with
  | Plan.Groups gs -> groups_unit v gs ~reg_name
  | Plan.Program _ -> (
      match Lower.tape_of_plan plan with
      | Some t -> tape_unit v t ~reg_name
      | None -> raise (Unsupported "no tape")
      | exception Lower.Unresolved_coefficient n ->
          raise (Unsupported ("unresolved coefficient " ^ n))
      | exception Invalid_argument m -> raise (Unsupported m))

let source ~(plan : Plan.t) v =
  if Array.length v.slot_shift <> Plan.n_slots plan
     || Array.length v.slot_unit <> Plan.n_slots plan
  then invalid_arg "Codegen.source: variant arity does not match the plan";
  let k = key ~plan v in
  match unit_of ~plan v ~reg_name:(callback_name k) with
  | ast ->
      Ok
        (Kernel_ast.print
           ~header:
             (Printf.sprintf
                "yasksite generated kernel (abi v%d) -- machine-written, do \
                 not edit.\n\
                \   plan: %s\n\
                \   fingerprint: %s\n\
                \   key: %s"
                abi plan.Plan.name plan.Plan.fingerprint k)
           ast)
  | exception Unsupported reason -> Error reason

let supported plan =
  let n = Plan.n_slots plan in
  match
    unit_of ~plan
      { slot_shift = Array.make n 0;
        slot_unit = Array.make n true;
        out_lp = 0;
        out_unit = true }
      ~reg_name:""
  with
  | (_ : Ast.unit_ast) -> Ok ()
  | exception Unsupported reason -> Error reason

(* ---- driving a kernel from the interpreter's driver ---- *)

let store_row (k : kern) drv xb xe =
  let stream = Lower.begin_row drv xb xe in
  let rw = Lower.driver_raw drv and rg = Lower.driver_rings drv in
  k.row rw.Lower.r_slot_data rw.Lower.r_slot_tab rw.Lower.r_out_data rw.Lower.r_out_tab
    (Lower.driver_row drv) (Lower.driver_out_row drv) rg.Lower.lbase rg.Lower.head
    rg.Lower.sets stream xb xe

let eval (k : kern) drv x =
  Lower.begin_point drv;
  let rw = Lower.driver_raw drv and rg = Lower.driver_rings drv in
  k.point rw.Lower.r_slot_data rw.Lower.r_slot_tab (Lower.driver_row drv) rg.Lower.lbase
    rg.Lower.head rg.Lower.sets x

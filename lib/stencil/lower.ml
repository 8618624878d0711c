module Grid = Yasksite_grid.Grid

(* Lowering: Spec.t -> Plan.t, and binding a plan to concrete grids.

   Every rewrite used below is exact in IEEE-754 double arithmetic for
   the finite data the engine operates on, so plan execution is
   bit-identical to evaluating the expression tree directly:

   - constant subtrees are folded with the very operation the tree would
     have applied at run time;
   - [a -. b] is emitted as the chain element [+ (negated b)] — IEEE
     defines subtraction as addition of the negated operand;
   - negation distributes exactly over addition and over multiplication
     by a constant (rounding is sign-symmetric);
   - [1.0 *. v = v], [-1.0 *. v = -.v] and [c *. v = v *. c] hold
     exactly.

   Only left-spine additive chains are linearised (the shape [Dsl.sum]
   and the random generator produce); right-nested sums keep their
   grouping by falling back to the postfix [Program] body, which
   replays the tree's own operation order verbatim. *)

(* ---- constant folding (exact: same ops the tree would execute) ---- *)

let rec cfold (e : Expr.t) : Expr.t =
  match e with
  | Const _ | Coeff _ | Ref _ -> e
  | Neg a -> ( match cfold a with Const x -> Const (-.x) | a' -> Neg a')
  | Add (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x +. y)
      | a', b' -> Add (a', b'))
  | Sub (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x -. y)
      | a', b' -> Sub (a', b'))
  | Mul (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x *. y)
      | a', b' -> Mul (a', b'))
  | Div (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (x /. y)
      | a', b' -> Div (a', b'))
  | Min (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (Float.min x y)
      | a', b' -> Min (a', b'))
  | Max (a, b) -> (
      match (cfold a, cfold b) with
      | Const x, Const y -> Const (Float.max x y)
      | a', b' -> Max (a', b'))
  | Select (c, a, b) -> (
      (* Folded only when ALL operands are constant: folding just the
         condition would drop the untaken branch's loads from the access
         table and change the kernel's read set. *)
      match (cfold c, cfold a, cfold b) with
      | Const vc, Const va, Const vb -> Const (if vc > 0.0 then va else vb)
      | c', a', b' -> Select (c', a', b'))

(* ---- linear-combination (Groups) detection ---- *)

exception Not_linear

(* The left-spine additive chain of [e], in evaluation order: the right
   operand of each Add/Sub is NOT recursed into, so a right-nested sum
   stays a single (non-linear) element and forces the Program fallback —
   flattening it would change the rounding order. *)
let spine e =
  let rec go acc (e : Expr.t) =
    match e with
    | Add (a, b) -> go ((1, b) :: acc) a
    | Sub (a, b) -> go ((-1, b) :: acc) a
    | _ -> (1, e) :: acc
  in
  go [] e

let rec term_of slot_of sign (e : Expr.t) : Plan.term =
  match e with
  | Const c -> { Plan.coeff = (if sign < 0 then -.c else c); slot = -1 }
  | Ref a -> { Plan.coeff = (if sign < 0 then -1.0 else 1.0); slot = slot_of a }
  | Mul (Const c, Ref a) | Mul (Ref a, Const c) ->
      { Plan.coeff = (if sign < 0 then -.c else c); slot = slot_of a }
  | Neg t -> term_of slot_of (-sign) t
  | _ -> raise Not_linear

let terms_of slot_of sign e =
  List.map (fun (s, t) -> term_of slot_of (sign * s) t) (spine e)

let rec group_of slot_of sign (e : Expr.t) : Plan.group =
  match e with
  | Neg inner -> group_of slot_of (-sign) inner
  | Mul (Const c, inner) | Mul (inner, Const c) ->
      { Plan.scale = Some (if sign < 0 then -.c else c);
        terms = Array.of_list (terms_of slot_of 1 inner) }
  | _ -> { Plan.scale = None; terms = Array.of_list (terms_of slot_of sign e) }

let groups_of slot_of e =
  match List.map (fun (s, g) -> group_of slot_of s g) (spine e) with
  | gs -> Some (Array.of_list gs)
  | exception Not_linear -> None

(* ---- postfix fallback ---- *)

let program slot_of e =
  let buf = ref [] in
  let push i = buf := i :: !buf in
  let rec go (e : Expr.t) =
    match e with
    | Const c -> push (Plan.Push c)
    | Coeff n -> push (Plan.Sym n)
    | Ref a -> push (Plan.Load (slot_of a))
    | Neg a ->
        go a;
        push Plan.Neg
    | Add (a, b) ->
        go a;
        go b;
        push Plan.Add
    | Sub (a, b) ->
        go a;
        go b;
        push Plan.Sub
    | Mul (a, b) ->
        go a;
        go b;
        push Plan.Mul
    | Div (a, b) ->
        go a;
        go b;
        push Plan.Div
    | Min (a, b) ->
        go a;
        go b;
        push Plan.Min
    | Max (a, b) ->
        go a;
        go b;
        push Plan.Max
    | Select (c, a, b) ->
        go c;
        go a;
        go b;
        push Plan.Sel
  in
  go e;
  let code = Array.of_list (List.rev !buf) in
  let d = ref 0 and depth = ref 0 in
  Array.iter
    (fun (i : Plan.instr) ->
      match i with
      | Push _ | Load _ | Sym _ ->
          incr d;
          if !d > !depth then depth := !d
      | Neg -> ()
      | Add | Sub | Mul | Div | Min | Max -> decr d
      | Sel -> d := !d - 2)
    code;
  Plan.Program { code; depth = !depth }

let make_slot_of accesses =
  let tbl = Hashtbl.create 16 in
  Array.iteri (fun i a -> Hashtbl.replace tbl a i) accesses;
  fun a -> Hashtbl.find tbl a

let lower (spec : Spec.t) : Plan.t =
  let info = Analysis.of_spec spec in
  let accesses = Array.of_list info.Analysis.accesses in
  let slot_of = make_slot_of accesses in
  let e = cfold spec.Spec.expr in
  let body =
    match groups_of slot_of e with
    | Some gs -> Plan.Groups gs
    | None -> program slot_of e
  in
  Plan.v ~name:spec.Spec.name ~rank:spec.Spec.rank
    ~n_fields:spec.Spec.n_fields ~accesses ~body

let fingerprint spec = (lower spec).Plan.fingerprint

(* ---- binding to concrete grids ---- *)

exception Unresolved_coefficient of string

let check (plan : Plan.t) ~inputs ~output =
  if Array.length inputs <> plan.Plan.n_fields then
    invalid_arg "Lower: input count does not match n_fields";
  Array.iter
    (fun g ->
      if Grid.rank g <> plan.Plan.rank then
        invalid_arg "Lower: input grid rank mismatch")
    inputs;
  if Grid.rank output <> plan.Plan.rank then
    invalid_arg "Lower: output grid rank mismatch";
  Array.iter
    (fun (a : Expr.access) ->
      let h = Grid.halo inputs.(a.field) in
      Array.iteri
        (fun i d ->
          if abs d > h.(i) then
            invalid_arg
              (Printf.sprintf
                 "Lower: field %d halo %d too small for offset %d" a.field
                 h.(i) d))
        a.offsets)
    plan.Plan.accesses

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* ---- the shift-classed tape ----

   A postfix program replays its expression tree verbatim, so once
   [Program.fuse] has substituted producers at shifted offsets the same
   subterm appears many times over: verbatim, and shifted along rows and
   columns. [tape_of] numbers the code once per bind into shift classes
   — every value is a class read at a 2-D shift (row, lane), where the
   row is dimension [rank - 2] (no row dimension, so always 0, at rank
   1) and the lane is the last dimension:

   - a load's class is (field, offsets other than the last two); those
     two are its shift;
   - an operator node's class is keyed by (operator, operand classes,
     each non-constant operand's shift minus the componentwise minimum
     of those shifts), and that minimum is the node's shift — so
     [ulap(y,x-1)], [ulap(y-1,x)] and [ulap(y,x+1)] are one class read
     at (0,-1), (-1,0) and (0,1);
   - constants have no shift and are keyed by their bit pattern, so
     [0.0]/[-0.0] and distinct NaN payloads never merge (a node over
     constants only, which [cfold] never leaves, gets shift (0,0)).

   Matching is structural only — nothing is commuted, reassociated or
   simplified (x86 propagates the first operand's NaN payload) — so a
   class is one function of the point, and every lane below holds
   exactly the bits the tree computes for that subterm at that point.

   Classes are numbered in first-use order, so operands precede their
   users. A backward pass gives every class a row hull [rlo, rhi] and a
   lane hull [lo, hi] of the shifts its users need it at, one interval
   per dimension. Over a strip of [n] points from [x0] on row [y], a
   class keeps one line buffer per row of its row hull: buffer [j]
   holds the class on row [y + rlo + j], lane [k] at [x0 + lo + k], for
   [n + hi - lo] lanes, and each operand is read at one fixed buffer
   offset and one fixed lane offset. A buffer has [strip + span] lanes
   (a constant: the widest span, and one buffer stands for every row),
   so for spans up to [256 - strip] it stays a minor-heap block and a
   driver never goes to [malloc] (a driver-sized block would, and would
   land in the hole a freed grid left, so the next grid could not reuse
   it). Every strip loop is unrolled by four with a scalar remainder.

   A driver keeps one set of buffers per strip position of the row
   segment [xb, xe), and each class's buffers form a ring. When
   [store_row] runs the row after the one it ran last — row coordinate
   one higher, every other leading coordinate and the segment unchanged,
   no [eval] in between — every ring rotates by one row and each class
   computes only its leading row [y + rhi]: the others are rows the
   previous call computed. Anything else (a block start, a row jump, a
   new segment, a rank-3 stream restarting its y-block at the next z,
   the one-point [eval]) restarts: every class computes its whole row
   hull. This is the paper's layer condition applied to the interpreter
   itself: the rows a stream reuses stay resident instead of being
   recomputed. *)

(* Long enough to amortize a strip's ring lookups, short enough that a
   buffer of [strip + span] lanes stays a minor-heap block for spans up
   to 128. *)
let strip = 128

type op = Neg | Add | Sub | Mul | Div | Min | Max | Sel

(* One operator node over [n + span] lanes: lane [k] of buffer [j] of
   [dst] is [op] of lanes [k + xo], [k + yo], [k + zo] of buffers
   [j + xr], [j + yr], [j + zr] of classes [x], [y], [z]. An operand the
   operator does not take ([Sel]'s are condition, then-value,
   else-value) repeats [x]. *)
type node = {
  op : op;
  dst : int;
  span : int;
  x : int;
  xr : int;
  xo : int;
  y : int;
  yr : int;
  yo : int;
  z : int;
  zr : int;
  zo : int;
}

(* One load class over [n + lspan] lanes: lane [k] of buffer [j] of
   [ldst] is the field on row [y + rlo + j] at [x0 + lo + k]: the row at
   the current leading coordinates plus [lead] ([rlo] along the row
   dimension) plus [j] along it, read through the table of slot [slot]
   (any slot of the class) at index [x0 + k + slot_shift.(slot) + rel]. *)
type load = {
  ldst : int;
  slot : int;
  lead : int array;
  rel : int;
  lspan : int;
  rlo : int;
  rhi : int;
  lo : int;
  hi : int;
}

type tape = {
  lanes : int array;  (* per class: lanes of each buffer *)
  rows : int array;  (* per class: ring length *)
  consts : float option array;  (* per class: [Some c] for a constant *)
  loads : load array;
  nodes : node array;  (* operands first *)
  result : int;
      (* The result's class occurs only at the root — a class fixes its
         subterm's shape — so its hulls are the root's shift alone: one
         row, whose lane [k] holds point [x0 + k]. *)
}

type key =
  | KConst of int64
  | KLoad of int * int array  (* field, offsets other than the last two *)
  | KNode of op * int * int * int * int * int * int * int * int * int
      (* operand classes, each followed by its relative row and lane
         shift; [-1], [0], [0] for an absent operand *)

(* Total on arbitrary code: a malformed program (underflow, a push past
   the declared [depth], a slot outside the access table, or anything
   but one value left at the end) is refused with [Invalid_argument]. *)
let tape_of ~(accesses : Expr.access array) code depth =
  let fail fmt = Printf.ksprintf (fun m -> invalid_arg ("Lower: " ^ m)) fmt in
  let n_slots = Array.length accesses in
  let ids = Hashtbl.create 64 and keys = Hashtbl.create 64 in
  let first_slot = Hashtbl.create 16 in
  let n_cls = ref 0 in
  let intern key =
    match Hashtbl.find_opt ids key with
    | Some c -> c
    | None ->
        let c = !n_cls in
        incr n_cls;
        Hashtbl.add ids key c;
        Hashtbl.add keys c key;
        c
  in
  let shifted c =
    c >= 0 && match Hashtbl.find keys c with KConst _ -> false | _ -> true
  in
  (* the stack holds (class, row shift, lane shift) triples; a
     constant's shift is (0, 0) *)
  let stack = Array.make (max 0 depth) (0, 0, 0) and sp = ref 0 in
  let push i v =
    if !sp >= depth then
      fail "postfix instruction %d exceeds the declared stack depth %d" i
        depth;
    stack.(!sp) <- v;
    incr sp
  in
  let pop i =
    if !sp = 0 then fail "postfix stack underflow at instruction %d" i;
    decr sp;
    stack.(!sp)
  in
  let node i op arity =
    let ((zc, zr, zl) as z) = if arity = 3 then pop i else (-1, 0, 0) in
    let ((yc, yr, yl) as y) = if arity >= 2 then pop i else (-1, 0, 0) in
    let ((xc, xr, xl) as x) = pop i in
    let mr, ml =
      List.fold_left
        (fun (mr, ml) (c, r, l) ->
          if shifted c then (min mr r, min ml l) else (mr, ml))
        (max_int, max_int) [ x; y; z ]
    in
    let mr, ml = if mr = max_int then (0, 0) else (mr, ml) in
    let rr c r = if shifted c then r - mr else 0
    and rl c l = if shifted c then l - ml else 0 in
    push i
      ( intern
          (KNode
             ( op, xc, rr xc xr, rl xc xl, yc, rr yc yr, rl yc yl, zc,
               rr zc zr, rl zc zl )),
        mr,
        ml )
  in
  Array.iteri
    (fun i (ins : Plan.instr) ->
      match ins with
      | Push c -> push i (intern (KConst (Int64.bits_of_float c)), 0, 0)
      | Load s ->
          if s < 0 || s >= n_slots then
            fail "postfix instruction %d loads slot %d of a %d-entry table" i
              s n_slots;
          let o = accesses.(s).offsets in
          let last = Array.length o - 1 in
          let outer = Array.sub o 0 (max 0 (last - 1)) in
          let c = intern (KLoad (accesses.(s).field, outer)) in
          if not (Hashtbl.mem first_slot c) then Hashtbl.add first_slot c s;
          push i (c, (if last >= 1 then o.(last - 1) else 0), o.(last))
      | Sym n -> raise (Unresolved_coefficient n)
      | Neg -> node i Neg 1
      | Add -> node i Add 2
      | Sub -> node i Sub 2
      | Mul -> node i Mul 2
      | Div -> node i Div 2
      | Min -> node i Min 2
      | Max -> node i Max 2
      | Sel -> node i Sel 3)
    code;
  if !sp <> 1 then
    fail "postfix program leaves %d values on the stack instead of 1" !sp;
  (* Hulls, users before operands. Every pushed value is popped by one
     later node or is the result, and that node's key names the value's
     class, so every class but a constant reaches the result and gets
     non-empty hulls before its operands are visited. *)
  let n = !n_cls in
  let key = Array.init n (Hashtbl.find keys) in
  let rlo = Array.make n max_int and rhi = Array.make n min_int in
  let lo = Array.make n max_int and hi = Array.make n min_int in
  let need c ra rb a b =
    if shifted c then begin
      rlo.(c) <- min rlo.(c) ra;
      rhi.(c) <- max rhi.(c) rb;
      lo.(c) <- min lo.(c) a;
      hi.(c) <- max hi.(c) b
    end
  in
  let rc, rr, rl = stack.(0) in
  need rc rr rr rl rl;
  for c = n - 1 downto 0 do
    match key.(c) with
    | KNode (_, xc, xr, xl, yc, yr, yl, zc, zr, zl) ->
        let use o r l =
          need o (rlo.(c) + r) (rhi.(c) + r) (lo.(c) + l) (hi.(c) + l)
        in
        use xc xr xl;
        use yc yr yl;
        use zc zr zl
    | KConst _ | KLoad _ -> ()
  done;
  let span c = if shifted c then hi.(c) - lo.(c) else 0
  and ring c = if shifted c then rhi.(c) - rlo.(c) + 1 else 0 in
  let max_span = ref 0 and max_rows = ref 1 in
  for c = 0 to n - 1 do
    max_span := max !max_span (span c);
    max_rows := max !max_rows (ring c)
  done;
  let loads = ref [] and nodes = ref [] in
  for c = n - 1 downto 0 do
    match key.(c) with
    | KConst _ -> ()
    | KLoad _ ->
        let s = Hashtbl.find first_slot c in
        let o = accesses.(s).offsets in
        let last = Array.length o - 1 in
        let lead = Array.sub o 0 last in
        if last >= 1 then lead.(last - 1) <- rlo.(c);
        loads :=
          { ldst = c;
            slot = s;
            lead;
            rel = lo.(c) - o.(last);
            lspan = span c;
            rlo = rlo.(c);
            rhi = rhi.(c);
            lo = lo.(c);
            hi = hi.(c) }
          :: !loads
    | KNode (op, x, xr, xl, y, yr, yl, z, zr, zl) ->
        (* an operand's buffer and lane offsets; an absent operand
           repeats [x] *)
        let off o r l =
          if shifted o then (rlo.(c) + r - rlo.(o), lo.(c) + l - lo.(o))
          else (0, 0)
        in
        let xr, xo = off x xr xl in
        let y, (yr, yo) = if y < 0 then (x, (xr, xo)) else (y, off y yr yl) in
        let z, (zr, zo) = if z < 0 then (x, (xr, xo)) else (z, off z zr zl) in
        nodes :=
          { op; dst = c; span = span c; x; xr; xo; y; yr; yo; z; zr; zo }
          :: !nodes
  done;
  { lanes =
      Array.init n (fun c ->
          strip + if shifted c then span c else !max_span);
    rows = Array.init n (fun c -> if shifted c then ring c else !max_rows);
    consts =
      Array.map
        (function KConst bits -> Some (Int64.float_of_bits bits) | _ -> None)
        key;
    loads = Array.of_list !loads;
    nodes = Array.of_list !nodes;
    result = rc }

(* The bind-time proof behind the unchecked reads of [run_strip]: along
   the row and along the lane dimension, every load class's hull lies
   within the offsets its slots carry in the access table, so a strip
   reads nothing outside the bounding box of the expression's own read
   set in those two dimensions — which [check] and the schedule gates
   prove in bounds, one dimension at a time. *)
let check_hulls (accesses : Expr.access array) t =
  Array.iter
    (fun l ->
      let a = accesses.(l.slot) in
      let last = Array.length a.offsets - 1 in
      let outer o = Array.sub o 0 (max 0 (last - 1)) in
      let within what d lo hi =
        let mn = ref max_int and mx = ref min_int in
        Array.iter
          (fun (b : Expr.access) ->
            if b.field = a.field && outer b.offsets = outer a.offsets then begin
              mn := min !mn b.offsets.(d);
              mx := max !mx b.offsets.(d)
            end)
          accesses;
        if lo < !mn || hi > !mx then
          invalid_arg
            (Printf.sprintf
               "Lower: load class of slot %d needs %s shifts [%d, %d] \
                outside its access-table offsets [%d, %d]"
               l.slot what lo hi !mn !mx)
      in
      if last >= 1 then within "row" (last - 1) l.rlo l.rhi;
      within "lane" last l.lo l.hi)
    t.loads

let checked_tape accesses code depth =
  let t = tape_of ~accesses code depth in
  check_hulls accesses t;
  t

let tape_of_plan (plan : Plan.t) =
  match plan.Plan.body with
  | Plan.Groups _ -> None
  | Plan.Program { code; depth } ->
      Some (checked_tape plan.Plan.accesses code depth)

type bbody =
  | BGroups of {
      goff : int array;  (* group g owns terms [goff.(g), goff.(g+1)) *)
      scaled : bool array;
      gscale : float array;
      t_coeff : float array;
      t_slot : int array;
    }
  | BTape of tape

(* Raw addressing handles for generated kernels (Codegen): the bound's
   storage and tables, without the interpreter in between. *)
type raw = {
  r_slot_data : farr array;
  r_slot_tab : int array array;
  r_out_data : farr;
  r_out_tab : int array;
}

type bound = {
  plan : Plan.t;
  output : Grid.t;
  slot_grid : Grid.t array;
  slot_data : farr array;
  slot_tab : int array array;  (* shared per input field *)
  slot_shift : int array;  (* last offset + the field grid's last left pad *)
  slot_outer : int array array;  (* the rank-1 leading offsets *)
  slot_base : int array;  (* byte base address per slot's grid *)
  out_data : farr;
  out_tab : int array;
  out_lp : int;
  out_unit : bool;
  out_base : int;
  bbody : bbody;
  raw : raw;
}

let flatten gs =
  let ng = Array.length gs in
  let goff = Array.make (ng + 1) 0 in
  Array.iteri
    (fun i (g : Plan.group) -> goff.(i + 1) <- goff.(i) + Array.length g.terms)
    gs;
  let nt = goff.(ng) in
  let t_coeff = Array.make (max 1 nt) 0.0
  and t_slot = Array.make (max 1 nt) 0 in
  Array.iteri
    (fun i (g : Plan.group) ->
      Array.iteri
        (fun j (tm : Plan.term) ->
          t_coeff.(goff.(i) + j) <- tm.coeff;
          t_slot.(goff.(i) + j) <- tm.slot)
        g.terms)
    gs;
  let scaled = Array.map (fun (g : Plan.group) -> g.scale <> None) gs in
  let gscale =
    Array.map
      (fun (g : Plan.group) -> match g.scale with Some s -> s | None -> 0.0)
      gs
  in
  BGroups { goff; scaled; gscale; t_coeff; t_slot }

let bind (plan : Plan.t) ~inputs ~output =
  check plan ~inputs ~output;
  let bbody =
    match plan.Plan.body with
    | Plan.Groups gs -> flatten gs
    | Plan.Program { code; depth } ->
        BTape (checked_tape plan.Plan.accesses code depth)
  in
  let r = plan.Plan.rank in
  let field_tab = Array.map Grid.last_dim_offsets inputs in
  let field_lp = Array.map (fun g -> (Grid.left_pad g).(r - 1)) inputs in
  let acc = plan.Plan.accesses in
  let slot_grid = Array.map (fun (a : Expr.access) -> inputs.(a.field)) acc in
  let slot_data = Array.map Grid.raw slot_grid
  and slot_tab = Array.map (fun (a : Expr.access) -> field_tab.(a.field)) acc
  and out_data = Grid.raw output
  and out_tab = Grid.last_dim_offsets output in
  { plan;
    output;
    slot_grid;
    slot_data;
    slot_tab;
    slot_shift =
      Array.map
        (fun (a : Expr.access) -> a.offsets.(r - 1) + field_lp.(a.field))
        acc;
    slot_outer =
      Array.map (fun (a : Expr.access) -> Array.sub a.offsets 0 (r - 1)) acc;
    slot_base = Array.map Grid.base_address slot_grid;
    out_data;
    out_tab;
    out_lp = (Grid.left_pad output).(r - 1);
    out_unit = Grid.unit_stride output;
    out_base = Grid.base_address output;
    bbody;
    raw =
      { r_slot_data = slot_data;
        r_slot_tab = slot_tab;
        r_out_data = out_data;
        r_out_tab = out_tab } }

let plan_of b = b.plan

let operands nd =
  let x = (nd.x, nd.xr, nd.xo) in
  match nd.op with
  | Neg -> [ x ]
  | Add | Sub | Mul | Div | Min | Max -> [ x; (nd.y, nd.yr, nd.yo) ]
  | Sel -> [ x; (nd.y, nd.yr, nd.yo); (nd.z, nd.zr, nd.zo) ]

let ringed t =
  let n = Array.length t.rows in
  let reads = Array.make n 0 and node = Array.make n false in
  Array.iter
    (fun nd ->
      node.(nd.dst) <- true;
      List.iter (fun (c, _, _) -> reads.(c) <- reads.(c) + 1) (operands nd))
    t.nodes;
  Array.init n (fun c -> node.(c) && reads.(c) > 1)

let tape_counts b =
  match b.bbody with
  | BGroups _ -> None
  | BTape t -> Some (Array.length t.nodes, Array.length t.loads)

(* Per-region mutable scratch. A bound is immutable and may be shared by
   concurrent pool slices; each slice drives its own driver. *)
type rings = {
  head : int array;  (* per class: the ring index of its row [rlo] *)
  lbase : int array array;  (* per load class: each ring row's flat base *)
  mutable sets : float array array array array;
      (* per strip position of the segment, per class: its ring *)
}

type driver = {
  b : bound;
  row : int array;  (* per-slot row base, set by {!set_row} *)
  mutable out_row : int;
  oc : int array;  (* rank-1 coordinate scratch *)
  cur : int array;  (* the leading coordinates of the last {!set_row} *)
  last : int array;  (* ... of the last row the rings were filled for *)
  mutable last_xb : int;
  mutable last_xe : int;
  mutable warm : bool;  (* the rings hold [last] on [last_xb, last_xe) *)
  rings : rings;
}

let new_set t =
  Array.init (Array.length t.lanes) (fun c ->
      match t.consts.(c) with
      | Some v -> Array.make t.rows.(c) (Array.make t.lanes.(c) v)
      | None -> Array.init t.rows.(c) (fun _ -> Array.make t.lanes.(c) 0.0))

let driver b =
  let r1 = max 0 (b.plan.Plan.rank - 1) in
  let head, lbase, sets =
    match b.bbody with
    | BGroups _ -> ([||], [||], [||])
    | BTape t ->
        ( Array.make (Array.length t.lanes) 0,
          Array.map (fun l -> Array.make t.rows.(l.ldst) 0) t.loads,
          [| new_set t |] )
  in
  { b;
    row = Array.make (max 1 (Array.length b.slot_grid)) 0;
    out_row = 0;
    oc = Array.make r1 0;
    cur = Array.make r1 0;
    last = Array.make r1 0;
    last_xb = 0;
    last_xe = 0;
    warm = false;
    rings = { head; lbase; sets } }

let set_row drv outer =
  let b = drv.b in
  let r1 = Array.length drv.oc in
  for s = 0 to Array.length b.slot_grid - 1 do
    let off = b.slot_outer.(s) in
    for i = 0 to r1 - 1 do
      drv.oc.(i) <- outer.(i) + off.(i)
    done;
    drv.row.(s) <- Grid.row_base b.slot_grid.(s) drv.oc
  done;
  Array.blit outer 0 drv.cur 0 r1;
  drv.out_row <- Grid.row_base b.output outer

let driver_row drv = drv.row

let driver_raw drv = drv.b.raw

let driver_rings drv = drv.rings

let driver_out_row drv = drv.out_row

(* No bounds checks below: for regions inside the iteration space every
   table index [x + shift] lies in [0, padded last extent) because the
   left pad covers the halo — callers gate illegal regions via [check]
   or trap them via the sanitizer before evaluation. A tape's load
   rows and lanes stay within the halo-covered box ([check_hulls]);
   class ids, ring rows and lanes are in range by construction of the
   tape. *)

let term_val b row t_coeff t_slot t x =
  let s = Array.unsafe_get t_slot t in
  if s < 0 then Array.unsafe_get t_coeff t
  else
    let v =
      Bigarray.Array1.unsafe_get
        (Array.unsafe_get b.slot_data s)
        (Array.unsafe_get row s
        + Array.unsafe_get
            (Array.unsafe_get b.slot_tab s)
            (x + Array.unsafe_get b.slot_shift s))
    in
    let c = Array.unsafe_get t_coeff t in
    if c = 1.0 then v else if c = -1.0 then -.v else c *. v
  [@@inline]

let point_groups b row goff scaled gscale t_coeff t_slot x =
  let group g =
    let t0 = Array.unsafe_get goff g
    and t1 = Array.unsafe_get goff (g + 1) in
    let s = ref (term_val b row t_coeff t_slot t0 x) in
    for t = t0 + 1 to t1 - 1 do
      s := !s +. term_val b row t_coeff t_slot t x
    done;
    if Array.unsafe_get scaled g then Array.unsafe_get gscale g *. !s
    else !s
  in
  let acc = ref (group 0) in
  for g = 1 to Array.length scaled - 1 do
    acc := !acc +. group g
  done;
  !acc

(* Unchecked float-array access for the line buffers. *)
external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* One buffer of a ring: [h] is the ring index of the class's row
   [rlo], [j] the wanted row's distance from it; both lie in
   [0, length). *)
let buf (ring : float array array) h j =
  let i = h + j and d = Array.length ring in
  Array.unsafe_get ring (if i >= d then i - d else i)
  [@@inline]

(* One load row: [m] lanes of [data] at row base [base] through table
   [tab] from index [sh] — four lanes per iteration, then the rest one
   by one. *)
let run_load (data : farr) (tab : int array) base (r : float array) sh m =
  for j = 0 to (m lsr 2) - 1 do
    let k = j lsl 2 in
    let ks = k + sh in
    set r k (Bigarray.Array1.unsafe_get data (base + Array.unsafe_get tab ks));
    set r (k + 1)
      (Bigarray.Array1.unsafe_get data (base + Array.unsafe_get tab (ks + 1)));
    set r (k + 2)
      (Bigarray.Array1.unsafe_get data (base + Array.unsafe_get tab (ks + 2)));
    set r (k + 3)
      (Bigarray.Array1.unsafe_get data (base + Array.unsafe_get tab (ks + 3)))
  done;
  for k = m land lnot 3 to m - 1 do
    set r k
      (Bigarray.Array1.unsafe_get data (base + Array.unsafe_get tab (k + sh)))
  done

(* One node row: [m] lanes of [r] from operand buffers [x], [y], [z],
   each read from one base index per iteration plus a constant, which
   the compiler folds into the addressing. *)
let run_node nd (r : float array) (x : float array) (y : float array)
    (z : float array) m =
  let xo = nd.xo in
  let q = m lsr 2 and rem = m land lnot 3 in
  match nd.op with
  | Neg ->
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo in
        set r k (-.get x kx);
        set r (k + 1) (-.get x (kx + 1));
        set r (k + 2) (-.get x (kx + 2));
        set r (k + 3) (-.get x (kx + 3))
      done;
      for k = rem to m - 1 do
        set r k (-.get x (k + xo))
      done
  | Add ->
      let yo = nd.yo in
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo and ky = k + yo in
        set r k ((get x kx) +. (get y ky));
        set r (k + 1) ((get x (kx + 1)) +. (get y (ky + 1)));
        set r (k + 2) ((get x (kx + 2)) +. (get y (ky + 2)));
        set r (k + 3) ((get x (kx + 3)) +. (get y (ky + 3)))
      done;
      for k = rem to m - 1 do
        set r k ((get x (k + xo)) +. (get y (k + yo)))
      done
  | Sub ->
      let yo = nd.yo in
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo and ky = k + yo in
        set r k ((get x kx) -. (get y ky));
        set r (k + 1) ((get x (kx + 1)) -. (get y (ky + 1)));
        set r (k + 2) ((get x (kx + 2)) -. (get y (ky + 2)));
        set r (k + 3) ((get x (kx + 3)) -. (get y (ky + 3)))
      done;
      for k = rem to m - 1 do
        set r k ((get x (k + xo)) -. (get y (k + yo)))
      done
  | Mul ->
      let yo = nd.yo in
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo and ky = k + yo in
        set r k ((get x kx) *. (get y ky));
        set r (k + 1) ((get x (kx + 1)) *. (get y (ky + 1)));
        set r (k + 2) ((get x (kx + 2)) *. (get y (ky + 2)));
        set r (k + 3) ((get x (kx + 3)) *. (get y (ky + 3)))
      done;
      for k = rem to m - 1 do
        set r k ((get x (k + xo)) *. (get y (k + yo)))
      done
  | Div ->
      let yo = nd.yo in
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo and ky = k + yo in
        set r k ((get x kx) /. (get y ky));
        set r (k + 1) ((get x (kx + 1)) /. (get y (ky + 1)));
        set r (k + 2) ((get x (kx + 2)) /. (get y (ky + 2)));
        set r (k + 3) ((get x (kx + 3)) /. (get y (ky + 3)))
      done;
      for k = rem to m - 1 do
        set r k ((get x (k + xo)) /. (get y (k + yo)))
      done
  | Min ->
      let yo = nd.yo in
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo and ky = k + yo in
        set r k (Float.min (get x kx) (get y ky));
        set r (k + 1) (Float.min (get x (kx + 1)) (get y (ky + 1)));
        set r (k + 2) (Float.min (get x (kx + 2)) (get y (ky + 2)));
        set r (k + 3) (Float.min (get x (kx + 3)) (get y (ky + 3)))
      done;
      for k = rem to m - 1 do
        set r k (Float.min (get x (k + xo)) (get y (k + yo)))
      done
  | Max ->
      let yo = nd.yo in
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo and ky = k + yo in
        set r k (Float.max (get x kx) (get y ky));
        set r (k + 1) (Float.max (get x (kx + 1)) (get y (ky + 1)));
        set r (k + 2) (Float.max (get x (kx + 2)) (get y (ky + 2)));
        set r (k + 3) (Float.max (get x (kx + 3)) (get y (ky + 3)))
      done;
      for k = rem to m - 1 do
        set r k (Float.max (get x (k + xo)) (get y (k + yo)))
      done
  | Sel ->
      let yo = nd.yo and zo = nd.zo in
      for j = 0 to q - 1 do
        let k = j lsl 2 in
        let kx = k + xo and ky = k + yo and kz = k + zo in
        set r k
          (if get x kx > 0.0 then get y ky else get z kz);
        set r (k + 1)
          (if get x (kx + 1) > 0.0 then get y (ky + 1) else get z (kz + 1));
        set r (k + 2)
          (if get x (kx + 2) > 0.0 then get y (ky + 2) else get z (kz + 2));
        set r (k + 3)
          (if get x (kx + 3) > 0.0 then get y (ky + 3) else get z (kz + 3))
      done;
      for k = rem to m - 1 do
        set r k
          (if get x (k + xo) > 0.0 then get y (k + yo) else get z (k + zo))
      done

(* Run the tape for the points [x0, x0 + n) of the current row on one
   strip position's rings: every load class, then every node, each over
   its [n + span] lanes — on its leading row only when [stream] (the
   rings have rotated onto this row), else on every row of its row
   hull. *)
let run_strip b t drv (set : float array array array) x0 n stream =
  let head = drv.rings.head in
  for i = 0 to Array.length t.loads - 1 do
    let l = Array.unsafe_get t.loads i in
    let ring = Array.unsafe_get set l.ldst
    and h = Array.unsafe_get head l.ldst
    and data = Array.unsafe_get b.slot_data l.slot
    and tab = Array.unsafe_get b.slot_tab l.slot
    and bases = Array.unsafe_get drv.rings.lbase i
    and sh = x0 + Array.unsafe_get b.slot_shift l.slot + l.rel
    and m = n + l.lspan in
    let d = Array.length ring in
    for j = (if stream then d - 1 else 0) to d - 1 do
      run_load data tab (Array.unsafe_get bases j) (buf ring h j) sh m
    done
  done;
  for i = 0 to Array.length t.nodes - 1 do
    let nd = Array.unsafe_get t.nodes i in
    let ring = Array.unsafe_get set nd.dst
    and h = Array.unsafe_get head nd.dst
    and xs = Array.unsafe_get set nd.x
    and xh = Array.unsafe_get head nd.x
    and ys = Array.unsafe_get set nd.y
    and yh = Array.unsafe_get head nd.y
    and zs = Array.unsafe_get set nd.z
    and zh = Array.unsafe_get head nd.z
    and m = n + nd.span in
    let d = Array.length ring in
    for j = (if stream then d - 1 else 0) to d - 1 do
      run_node nd (buf ring h j)
        (buf xs xh (j + nd.xr))
        (buf ys yh (j + nd.yr))
        (buf zs zh (j + nd.zr))
        m
    done
  done

(* Position the rings on the current row: rotate them by one row when
   [stream], else restart them; then the flat row base of every ring
   row of every load class ([lbase.(i).(j)] is always the base of
   logical row [j]: a stream shifts the bases down by one and computes
   only the newest, which is all the interpreter reads, while a
   generated kernel reads load rows in place at any [j]). *)
let ready_rows drv t stream =
  let head = drv.rings.head in
  if stream then
    for c = 0 to Array.length head - 1 do
      let h = head.(c) + 1 in
      head.(c) <- (if h = t.rows.(c) then 0 else h)
    done
  else Array.fill head 0 (Array.length head) 0;
  let b = drv.b and oc = drv.oc and cur = drv.cur in
  let r1 = Array.length oc in
  for i = 0 to Array.length t.loads - 1 do
    let l = t.loads.(i) and bases = drv.rings.lbase.(i) in
    let d = Array.length bases in
    for k = 0 to r1 - 1 do
      oc.(k) <- cur.(k) + l.lead.(k)
    done;
    if stream then
      for j = 0 to d - 2 do
        Array.unsafe_set bases j (Array.unsafe_get bases (j + 1))
      done;
    for j = (if stream then d - 1 else 0) to d - 1 do
      if r1 > 0 then oc.(r1 - 1) <- cur.(r1 - 1) + l.lead.(r1 - 1) + j;
      bases.(j) <- Grid.row_base b.slot_grid.(l.slot) oc
    done
  done

(* Whether the rings hold the rows the current row reuses: the last
   tape row was this segment on the row before, along dimension
   [rank - 2], with every other leading coordinate the same. *)
let continues drv xb xe =
  let r1 = Array.length drv.cur in
  drv.warm && xb = drv.last_xb && xe = drv.last_xe && r1 > 0
  && drv.cur.(r1 - 1) = drv.last.(r1 - 1) + 1
  &&
  let same = ref true in
  for i = 0 to r1 - 2 do
    if drv.cur.(i) <> drv.last.(i) then same := false
  done;
  !same

(* The continue-or-restart decision both backends run a row under:
   position the rings, make room for every strip position of
   [xb, xe), and record the row as the one the rings now hold. *)
let begin_row drv xb xe =
  match drv.b.bbody with
  | BGroups _ -> false
  | BTape _ when xe <= xb ->
      drv.warm <- false;
      false
  | BTape t ->
      let stream = continues drv xb xe in
      ready_rows drv t stream;
      let np = (xe - xb + strip - 1) / strip and rg = drv.rings in
      if Array.length rg.sets < np then begin
        let sets = rg.sets in
        rg.sets <-
          Array.init np (fun p ->
              if p < Array.length sets then sets.(p) else new_set t)
      end;
      Array.blit drv.cur 0 drv.last 0 (Array.length drv.cur);
      drv.last_xb <- xb;
      drv.last_xe <- xe;
      drv.warm <- true;
      stream

let begin_point drv =
  match drv.b.bbody with
  | BGroups _ -> ()
  | BTape t ->
      drv.warm <- false;
      ready_rows drv t false

let eval drv x =
  let b = drv.b in
  match b.bbody with
  | BGroups { goff; scaled; gscale; t_coeff; t_slot } ->
      point_groups b drv.row goff scaled gscale t_coeff t_slot x
  | BTape t ->
      begin_point drv;
      let set = drv.rings.sets.(0) in
      run_strip b t drv set x 1 false;
      Array.unsafe_get (Array.unsafe_get set.(t.result) 0) 0

let out_offset drv x =
  drv.out_row + Array.unsafe_get drv.b.out_tab (x + drv.b.out_lp)

let out_addr drv x = drv.b.out_base + (8 * out_offset drv x)

let read_addr drv s x =
  let b = drv.b in
  b.slot_base.(s)
  + 8
    * (drv.row.(s)
      + Array.unsafe_get (Array.unsafe_get b.slot_tab s)
          (x + Array.unsafe_get b.slot_shift s))

let store_row drv xb xe =
  let b = drv.b in
  let row = drv.row in
  match b.bbody with
  | BGroups { goff; scaled; gscale; t_coeff; t_slot } ->
      if b.out_unit then begin
        let off = ref (drv.out_row + b.out_lp + xb) in
        for x = xb to xe - 1 do
          Bigarray.Array1.unsafe_set b.out_data !off
            (point_groups b row goff scaled gscale t_coeff t_slot x);
          incr off
        done
      end
      else
        for x = xb to xe - 1 do
          Bigarray.Array1.unsafe_set b.out_data
            (drv.out_row + Array.unsafe_get b.out_tab (x + b.out_lp))
            (point_groups b row goff scaled gscale t_coeff t_slot x)
        done
  | BTape t ->
      let stream = begin_row drv xb xe in
      let np = (xe - xb + strip - 1) / strip in
      for p = 0 to np - 1 do
        let x0 = xb + (p * strip) in
        let n = min strip (xe - x0) in
        let set = Array.unsafe_get drv.rings.sets p in
        run_strip b t drv set x0 n stream;
        (* the result's ring is one row, so its head stays 0 *)
        let res = Array.unsafe_get (Array.unsafe_get set t.result) 0 in
        if b.out_unit then begin
          let off = drv.out_row + b.out_lp + x0 in
          for k = 0 to n - 1 do
            Bigarray.Array1.unsafe_set b.out_data (off + k)
              (Array.unsafe_get res k)
          done
        end
        else begin
          let o = x0 + b.out_lp in
          for k = 0 to n - 1 do
            Bigarray.Array1.unsafe_set b.out_data
              (drv.out_row + Array.unsafe_get b.out_tab (o + k))
              (Array.unsafe_get res k)
          done
        end
      done

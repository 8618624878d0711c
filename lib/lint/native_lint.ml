(* Native translation validator: the YS6xx rule family.

   Stencil.Codegen emits an OCaml compilation unit per specialization
   variant; Engine.Native compiles it out of process and the result is
   cached forever in the kern-v1 store -- so a miscompile there is a
   *permanent* wrong answer.  This pass closes that gap statically: it
   parses the emitted source back into the checked AST
   (Stencil.Kernel_ast -- a grammar covering exactly the shapes
   Codegen produces, nothing more), builds the unit the plan IR
   *requires* under the same specialization variant, and proves the
   two identical:

   - op-for-op IEEE-754 equivalence: the same left-associated [+.]
     chains, the same [1.0]/[-1.0] coefficient specializations, every
     hex-float literal round-tripping bit-exactly to the plan's
     coefficient (YS601/YS602/YS603);
   - for a postfix body, the reference is rebuilt from Lower's tape:
     one strip loop per ringed shift class over each of its ring rows,
     reads at the tape's row and lane shifts of the right classes
     (YS613/YS614), ring buffers bound to the right physical rows
     (YS615) and every row a restart must recompute present (YS616).
     The tape is checked first, not trusted: [check_tape] replays it
     symbolically, rings included, into an expression tree that must
     equal the postfix body (YS617);
   - address arithmetic: every load's base/table/shift matches the
     variant's per-slot last-dimension shift and unit-stride flag
     (YS604/YS605/YS606), and the shift implies an offset inside the
     YS5xx-certified halo of the grid it reads (YS607);
   - the surrounding unit: prelude bindings name the slots the body
     uses (YS611/YS600), the output loop matches the variant's
     out-pad/unit-stride mode (YS608), [kern_point] and [kern_row]
     compute the same expression (YS609), and the kernel registers
     under the ABI-versioned callback name of its own key (YS610).

   The validator is pure (no compiler, no execution); Engine.Native
   runs it on every resolution -- memo-cold, store-revived or freshly
   compiled -- and a passing verdict earns a native certificate so
   warm paths skip re-validation. *)

module D = Diagnostic
module Plan = Yasksite_stencil.Plan
module Expr = Yasksite_stencil.Expr
module Codegen = Yasksite_stencil.Codegen
module Lower = Yasksite_stencil.Lower
module Ast = Yasksite_stencil.Kernel_ast
module Grid = Yasksite_grid.Grid

(* Bump whenever the rules or the accepted grammar change: the native
   certificate embeds this, so stale verdicts are re-proved.
   v2: compare-select ops (Float.min/Float.max/if-select) joined the
   accepted grammar.
   v3: postfix bodies are tape units (YS613-YS617); the per-point
   postfix reconstruction left the grammar. *)
let version = 3

let dedup = Schedule_lint.dedup

exception Refused of string

open Ast


let load_e (v : Codegen.variant) s =
  if s < 0 || s >= Array.length v.Codegen.slot_shift then
    raise (Refused (Printf.sprintf "load of slot %d outside the access table" s));
  let shift = v.Codegen.slot_shift.(s) in
  if v.Codegen.slot_unit.(s) then Get (Unit_addr { data = s; row = s; shift })
  else Get (Tab_addr { data = s; row = s; tab = s; shift })

let lit_e c =
  if c <> c then
    raise (Refused "NaN coefficient (payload bits not emittable)")
  else Lit c

let term_e v (t : Plan.term) =
  if t.Plan.slot < 0 then lit_e t.Plan.coeff
  else if t.Plan.coeff = 1.0 then load_e v t.Plan.slot
  else if t.Plan.coeff = -1.0 then Neg (load_e v t.Plan.slot)
  else Bin (Mul, lit_e t.Plan.coeff, load_e v t.Plan.slot)

let chain_add = function
  | [] -> raise (Refused "empty sum")
  | e :: tl -> List.fold_left (fun acc x -> Bin (Add, acc, x)) e tl

let group_e v (g : Plan.group) =
  if Array.length g.Plan.terms = 0 then raise (Refused "empty group");
  let sum = chain_add (Array.to_list (Array.map (term_e v) g.Plan.terms)) in
  match g.Plan.scale with
  | None -> sum
  | Some s -> Bin (Mul, lit_e s, sum)

let groups_expr v gs =
  if Array.length gs = 0 then raise (Refused "empty plan body");
  chain_add (Array.to_list (Array.map (group_e v) gs))

let groups_binds gs (v : Codegen.variant) =
  let used = Array.make (max 1 (Array.length v.Codegen.slot_shift)) false in
  let mark s = if s >= 0 && s < Array.length used then used.(s) <- true in
  Array.iter
    (fun (g : Plan.group) ->
      Array.iter (fun (t : Plan.term) -> mark t.Plan.slot) g.Plan.terms)
    gs;
  let binds = ref [] in
  Array.iteri
    (fun s u ->
      if u then begin
        binds := Bind_data { name = s; src = s } :: !binds;
        if s < Array.length v.Codegen.slot_unit && not v.Codegen.slot_unit.(s)
        then binds := Bind_tab { name = s; src = s } :: !binds;
        binds := Bind_row { name = s; src = s } :: !binds
      end)
    used;
  List.rev !binds

let expected_out (v : Codegen.variant) =
  if v.Codegen.out_unit then Out_unit { lp = v.Codegen.out_lp }
  else Out_tab { lp = v.Codegen.out_lp }

(* ------------------------------------------------------------------ *)
(* The tape validator: replay a tape back into an expression tree      *)

(* The postfix body as the tree it encodes (accesses resolved). *)
let postfix_tree (plan : Plan.t) code =
  let module E = Expr in
  let stack = ref [] in
  let pop () =
    match !stack with
    | e :: tl ->
        stack := tl;
        e
    | [] -> raise (Refused "malformed postfix program (stack underflow)")
  in
  let push e = stack := e :: !stack in
  let bin f =
    let b = pop () in
    let a = pop () in
    push (f a b)
  in
  Array.iter
    (fun (i : Plan.instr) ->
      match i with
      | Plan.Push c -> push (E.Const c)
      | Plan.Load s -> push (E.Ref plan.Plan.accesses.(s))
      | Plan.Sym n -> raise (Refused ("unresolved coefficient " ^ n))
      | Plan.Neg -> push (E.Neg (pop ()))
      | Plan.Add -> bin (fun a b -> E.Add (a, b))
      | Plan.Sub -> bin (fun a b -> E.Sub (a, b))
      | Plan.Mul -> bin (fun a b -> E.Mul (a, b))
      | Plan.Div -> bin (fun a b -> E.Div (a, b))
      | Plan.Min -> bin (fun a b -> E.Min (a, b))
      | Plan.Max -> bin (fun a b -> E.Max (a, b))
      | Plan.Sel ->
          let b = pop () in
          let a = pop () in
          push (E.Select (pop (), a, b)))
    code;
  match !stack with
  | [ e ] -> e
  | _ -> raise (Refused "malformed postfix program (leftover operands)")

(* Structural equality, constants by bit pattern. *)
let rec tree_eq (a : Expr.t) (b : Expr.t) =
  match (a, b) with
  | Const x, Const y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Ref x, Ref y -> x.field = y.field && x.offsets = y.offsets
  | Coeff x, Coeff y -> String.equal x y
  | Neg x, Neg y -> tree_eq x y
  | Add (a1, b1), Add (a2, b2)
  | Sub (a1, b1), Sub (a2, b2)
  | Mul (a1, b1), Mul (a2, b2)
  | Div (a1, b1), Div (a2, b2)
  | Min (a1, b1), Min (a2, b2)
  | Max (a1, b1), Max (a2, b2) ->
      tree_eq a1 a2 && tree_eq b1 b2
  | Select (c1, a1, b1), Select (c2, a2, b2) ->
      tree_eq c1 c2 && tree_eq a1 a2 && tree_eq b1 b2
  | _ -> false

(* Replay [t] from its result class: logical ring row [j] of a class
   holds the row [j] below its row [rlo], lane [k] the point [k] right
   of its lane [lo] (relative to the strip start), and a node reads
   its operands [xr] rows and [xo] lanes further on in their rings —
   exactly the buffers [Lower.store_row] reads. Every operand ring row
   and lane a node's loop touches must lie inside the operand's ring. *)
let replay (plan : Plan.t) (t : Lower.tape) =
  let n = Array.length t.Lower.rows in
  let fail fmt = Printf.ksprintf (fun m -> raise (Refused m)) fmt in
  let load_of = Array.make n None and node_of = Array.make n None in
  Array.iter (fun (l : Lower.load) -> load_of.(l.Lower.ldst) <- Some l) t.Lower.loads;
  Array.iter (fun (nd : Lower.node) -> node_of.(nd.Lower.dst) <- Some nd) t.Lower.nodes;
  let span c = t.Lower.lanes.(c) - Lower.strip in
  Array.iter
    (fun (nd : Lower.node) ->
      let c = nd.Lower.dst in
      List.iter
        (fun (o, r, l) ->
          if t.Lower.consts.(o) = None
             && (r < 0 || r + t.Lower.rows.(c) > t.Lower.rows.(o)
                || l < 0 || l + span c > span o)
          then
            fail "class %d reads class %d at ring row %d, lane %d outside its \
                  %d-row, %d-lane ring"
              c o r l t.Lower.rows.(o) (span o))
        (Lower.operands nd))
    t.Lower.nodes;
  let rank = plan.Plan.rank in
  let rec value c j k =
    match (t.Lower.consts.(c), load_of.(c), node_of.(c)) with
    | Some x, _, _ -> Expr.Const x
    | None, Some l, _ ->
        let a = plan.Plan.accesses.(l.Lower.slot) in
        let last = rank - 1 in
        let offsets =
          Array.init rank (fun d ->
              if d = last then a.Expr.offsets.(last) + l.Lower.rel + k
              else if d = last - 1 then l.Lower.lead.(d) + j
              else l.Lower.lead.(d))
        in
        Expr.Ref { Expr.field = a.Expr.field; offsets }
    | None, None, Some nd -> (
        let v (o, r, l) = value o (j + r) (k + l) in
        match (nd.Lower.op, List.map v (Lower.operands nd)) with
        | Lower.Neg, [ a ] -> Expr.Neg a
        | Lower.Add, [ a; b ] -> Expr.Add (a, b)
        | Lower.Sub, [ a; b ] -> Expr.Sub (a, b)
        | Lower.Mul, [ a; b ] -> Expr.Mul (a, b)
        | Lower.Div, [ a; b ] -> Expr.Div (a, b)
        | Lower.Min, [ a; b ] -> Expr.Min (a, b)
        | Lower.Max, [ a; b ] -> Expr.Max (a, b)
        | Lower.Sel, [ c; a; b ] -> Expr.Select (c, a, b)
        | _ -> fail "class %d: operator arity" c)
    | None, None, None -> fail "class %d has no definition" c
  in
  if t.Lower.rows.(t.Lower.result) <> 1 then
    fail "the result class keeps %d ring rows, not 1" t.Lower.rows.(t.Lower.result);
  value t.Lower.result 0 0

let check_tape (plan : Plan.t) (t : Lower.tape) =
  let tape_err m =
    [ D.v D.Error ~code:"YS617" ("tape does not replay to the postfix body: " ^ m) ]
  in
  match plan.Plan.body with
  | Plan.Groups _ -> tape_err "the plan has an FMA-chain body"
  | Plan.Program { code; _ } -> (
      match (postfix_tree plan code, replay plan t) with
      | exception Refused m -> tape_err m
      | exception Invalid_argument m -> tape_err ("malformed tape: " ^ m)
      | want, got ->
          if tree_eq want got then []
          else
            tape_err
              (Printf.sprintf "replayed %s, the body is %s" (Expr.to_c got)
                 (Expr.to_c want)))

(* ------------------------------------------------------------------ *)
(* The tape reference: what Codegen must emit for a tape               *)

(* The classes [Lower.ringed] keeps in rings get strip loops; every
   other operator class is expected inline in its user's loop. *)
let tape_ref (v : Codegen.variant) (t : Lower.tape) =
  let n = Array.length t.Lower.rows in
  let node_of = Array.make n None and load_ix = Array.make n (-1) in
  Array.iter (fun (nd : Lower.node) -> node_of.(nd.Lower.dst) <- Some nd) t.Lower.nodes;
  Array.iteri (fun i (l : Lower.load) -> load_ix.(l.Lower.ldst) <- i) t.Lower.loads;
  let ringed = Lower.ringed t in
  let rec at ~inside c j k =
    if t.Lower.consts.(c) <> None then lit_e (Option.get t.Lower.consts.(c))
    else if load_ix.(c) >= 0 then begin
      let l = t.Lower.loads.(load_ix.(c)) in
      let s = l.Lower.slot in
      let shift = v.Codegen.slot_shift.(s) + l.Lower.rel + k in
      if v.Codegen.slot_unit.(s) then Get (Lane_unit { data = s; base = (c, j); shift })
      else Get (Lane_tab { data = s; base = (c, j); tab = s; shift })
    end
    else if ringed.(c) && not inside then Buf { cls = c; row = j; lane = k }
    else
      let nd = Option.get node_of.(c) in
      let arg (o, r, l) = at ~inside:false o (j + r) (k + l) in
      match List.map arg (Lower.operands nd) with
      | [ a ] -> Neg a
      | [ a; b ] -> (
          match nd.Lower.op with
          | Lower.Add -> Bin (Add, a, b)
          | Lower.Sub -> Bin (Sub, a, b)
          | Lower.Mul -> Bin (Mul, a, b)
          | Lower.Div -> Bin (Div, a, b)
          | Lower.Min -> Fmin (a, b)
          | _ -> Fmax (a, b))
      | [ c; a; b ] -> Sel (c, a, b)
      | _ -> raise (Refused "operator arity")
  in
  let loads = Array.to_list (Array.mapi (fun i l -> (i, l)) t.Lower.loads) in
  let slot_b =
    List.concat_map
      (fun (_, (l : Lower.load)) ->
        let s = l.Lower.slot in
        Bind_data { name = s; src = s }
        :: (if v.Codegen.slot_unit.(s) then [] else [ Bind_tab { name = s; src = s } ]))
      loads
  and base_b =
    List.concat_map
      (fun (i, (l : Lower.load)) ->
        let c = l.Lower.ldst in
        List.init t.Lower.rows.(c) (fun j ->
            Bind_base
              { cls = c;
                row = j;
                load = i;
                lrow = j;
                x0 = v.Codegen.slot_unit.(l.Lower.slot) }))
      loads
  and ring_b =
    List.concat
      (List.init n (fun c ->
           let d = t.Lower.rows.(c) in
           if ringed.(c) then
             List.init d (fun j ->
                 Bind_ring { cls = c; row = j; set = c; head = c; phys = j; len = d })
           else []))
  in
  let blocks =
    List.filter_map
      (fun (nd : Lower.node) ->
        let c = nd.Lower.dst in
        if not ringed.(c) then None
        else
          let loop j =
            { cls = c; row = j; span = nd.Lower.span; body = at ~inside:true c j 0 }
          in
          let d = t.Lower.rows.(c) in
          Some { restart = List.init (d - 1) loop; lead = loop (d - 1) })
      (Array.to_list t.Lower.nodes)
  in
  ( { strip = Lower.strip; binds = slot_b @ base_b @ ring_b; blocks },
    at ~inside:true t.Lower.result 0 0 )

(* ------------------------------------------------------------------ *)
(* Comparison: classify every divergence under a stable YS6xx code     *)

let bits = Int64.bits_of_float

let lit_eq a b = bits a = bits b

let rec eq_expr a b =
  match (a, b) with
  | Lit x, Lit y -> lit_eq x y
  | Get x, Get y -> x = y
  | Neg x, Neg y -> eq_expr x y
  | Bin (o1, a1, b1), Bin (o2, a2, b2) ->
      o1 = o2 && eq_expr a1 a2 && eq_expr b1 b2
  | Fmin (a1, b1), Fmin (a2, b2) | Fmax (a1, b1), Fmax (a2, b2) ->
      eq_expr a1 a2 && eq_expr b1 b2
  | Sel (c1, a1, b1), Sel (c2, a2, b2) ->
      eq_expr c1 c2 && eq_expr a1 a2 && eq_expr b1 b2
  | Buf x, Buf y -> x.cls = y.cls && x.row = y.row && x.lane = y.lane
  | _ -> false

(* the left [+.] spine — the associativity-sensitive view *)
let rec add_spine = function
  | Bin (Add, a, b) -> add_spine a @ [ b ]
  | e -> [ e ]

(* every [+.] flattened — the associativity-blind view, used to tell a
   reassociated chain (YS602) from a dropped/extra term (YS603) *)
let rec full_flat = function
  | Bin (Add, a, b) -> full_flat a @ full_flat b
  | e -> [ e ]

let short e =
  let s = expr_str e in
  if String.length s > 64 then String.sub s 0 61 ^ "..." else s

let err code fmt = Printf.ksprintf (fun m -> D.v D.Error ~code m) fmt

let diff_addr ~where exp act acc =
  match (exp, act) with
  | Unit_addr e, Unit_addr a ->
      if e.data <> a.data || e.row <> a.row then
        err "YS605"
          "%s: load reads slot d%d/r%d where the plan requires slot %d" where
          a.data a.row e.data
        :: acc
      else if e.shift <> a.shift then
        err "YS604"
          "%s: address shift %d does not match the variant's slot-%d shift %d"
          where a.shift e.data e.shift
        :: acc
      else acc
  | Tab_addr e, Tab_addr a ->
      if e.data <> a.data || e.row <> a.row || e.tab <> a.tab then
        err "YS605"
          "%s: load reads slot d%d/r%d/t%d where the plan requires slot %d"
          where a.data a.row a.tab e.data
        :: acc
      else if e.shift <> a.shift then
        err "YS604"
          "%s: address shift %d does not match the variant's slot-%d shift %d"
          where a.shift e.data e.shift
        :: acc
      else acc
  | Unit_addr e, Tab_addr _ ->
      err "YS606"
        "%s: slot %d uses table indirection where the variant marks the grid \
         unit-stride"
        where e.data
      :: acc
  | Tab_addr e, Unit_addr _ ->
      err "YS606"
        "%s: slot %d uses unit-stride addressing where the variant requires \
         the offset table"
        where e.data
      :: acc
  | Lane_unit { data = ed; base = eb; shift = es }, Lane_unit { data; base; shift }
  | ( Lane_tab { data = ed; base = eb; shift = es; _ },
      Lane_tab { data; base; shift; _ } ) ->
      let tab_ok =
        match (exp, act) with
        | Lane_tab e, Lane_tab a -> e.tab = a.tab
        | _ -> true
      in
      if ed <> data || not tab_ok then
        err "YS605" "%s: tape load reads slot d%d where the tape requires slot %d"
          where data ed
        :: acc
      else if fst eb <> fst base then
        err "YS614"
          "%s: tape load reads the row base of class %d where the tape requires \
           class %d"
          where (fst base) (fst eb)
        :: acc
      else if snd eb <> snd base then
        err "YS613"
          "%s: tape load of class %d reads ring row %d where the tape requires \
           row %d"
          where (fst eb) (snd base) (snd eb)
        :: acc
      else if es <> shift then
        err "YS604"
          "%s: address shift %d does not match the tape's slot-%d shift %d" where
          shift ed es
        :: acc
      else acc
  | Lane_unit _, Lane_tab _ | Lane_tab _, Lane_unit _ ->
      err "YS606"
        "%s: a tape load's addressing mode disagrees with the variant's \
         unit-stride flag"
        where
      :: acc
  | _ ->
      err "YS602" "%s: load shape diverges (expected %s, found %s)" where
        (expr_str (Get exp)) (expr_str (Get act))
      :: acc

let rec diff ~where exp act acc =
  if eq_expr exp act then acc
  else
    match (exp, act) with
    | Lit x, Lit y ->
        err "YS601"
          "%s: coefficient literal %h does not round-trip the plan's %h \
           (bits %Lx vs %Lx)"
          where y x (bits y) (bits x)
        :: acc
    | Get x, Get y -> diff_addr ~where x y acc
    | Buf e, Buf a ->
        if e.cls <> a.cls then
          err "YS614" "%s: reads ring c%d_%d where the tape requires class %d"
            where a.cls a.row e.cls
          :: acc
        else
          err "YS613"
            "%s: reads class %d at ring row %d, lane +%d where the tape \
             requires row %d, lane +%d"
            where a.cls a.row a.lane e.row e.lane
          :: acc
    | Neg x, Neg y -> diff ~where x y acc
    | (Bin (Add, _, _), _ | _, Bin (Add, _, _)) when spine_mismatch exp act ->
        let se = add_spine exp and sa = add_spine act in
        let fe = full_flat exp and fa = full_flat act in
        if
          List.length fe = List.length fa
          && List.for_all2 eq_expr fe fa
        then
          err "YS602"
            "%s: sum reassociated — the plan's left-associated %d-term chain \
             was emitted as a %d-element spine (IEEE-754 order differs)"
            where (List.length se) (List.length sa)
          :: acc
        else
          err "YS603"
            "%s: dropped or extra term — the plan sums %d terms, the kernel \
             sums %d"
            where (List.length se) (List.length sa)
          :: acc
    | Bin (Add, _, _), Bin (Add, _, _) ->
        let se = add_spine exp and sa = add_spine act in
        List.fold_left2 (fun acc e a -> diff ~where e a acc) acc se sa
    | Bin (o1, a1, b1), Bin (o2, a2, b2) when o1 = o2 ->
        diff ~where b1 b2 (diff ~where a1 a2 acc)
    | Fmin (a1, b1), Fmin (a2, b2) | Fmax (a1, b1), Fmax (a2, b2) ->
        diff ~where b1 b2 (diff ~where a1 a2 acc)
    | Sel (c1, a1, b1), Sel (c2, a2, b2) ->
        diff ~where b1 b2 (diff ~where a1 a2 (diff ~where c1 c2 acc))
    | _ ->
        err "YS602"
          "%s: expression structure diverges from the plan — expected %s, \
           found %s"
          where (short exp) (short act)
        :: acc

and spine_mismatch exp act =
  List.length (add_spine exp) <> List.length (add_spine act)

(* YS607: every load's implied last-dimension offset (shift − left pad)
   must stay inside the halo the YS5xx pass certified for that grid *)
(* YS607: every load's implied last-dimension offset (shift − left pad)
   must stay inside the halo the YS5xx pass certified for that grid. A
   tape load in a loop over [n + span] lanes reads [span] lanes further
   right as well. *)
let halo_bounds ?(span = 0) ~where (plan : Plan.t) ~inputs act acc =
  let r = plan.Plan.rank in
  let rec walk e acc =
    match e with
    | Lit _ | Buf _ -> acc
    | Neg x -> walk x acc
    | Bin (_, a, b) | Fmin (a, b) | Fmax (a, b) -> walk b (walk a acc)
    | Sel (c, a, b) -> walk b (walk a (walk c acc))
    | Get a ->
        let slot, shift, width =
          match a with
          | Unit_addr { data; shift; _ } | Tab_addr { data; shift; _ } ->
              (data, shift, 0)
          | Lane_unit { data; shift; _ } | Lane_tab { data; shift; _ } ->
              (data, shift, span)
        in
        if slot < 0 || slot >= Array.length plan.Plan.accesses then
          err "YS605" "%s: load of slot %d outside the access table" where
            slot
          :: acc
        else
          let field = plan.Plan.accesses.(slot).Expr.field in
          if field < 0 || field >= Array.length inputs then acc
          else
            let g = inputs.(field) in
            let lp = (Grid.left_pad g).(r - 1) in
            let halo = (Grid.halo g).(r - 1) in
            let off = shift - lp in
            if off < -halo || off + width > halo then
              err "YS607"
                "%s: slot %d's shift %d implies last-dimension offsets [%d, \
                 %d], outside the certified halo %d of field %d"
                where slot shift off (off + width) halo field
              :: acc
            else acc
  in
  walk act acc

let describe_bind = function
  | Bind_data { name; src } -> Printf.sprintf "d%d <- slot_data %d" name src
  | Bind_tab { name; src } -> Printf.sprintf "t%d <- slot_tab %d" name src
  | Bind_row { name; src } -> Printf.sprintf "r%d <- row %d" name src
  | Bind_base { cls; row; load; lrow; x0 } ->
      Printf.sprintf "b%d_%d <- lbase %d row %d%s" cls row load lrow
        (if x0 then " + x0" else "")
  | Bind_ring { cls; row; set; head; phys; len } ->
      Printf.sprintf "c%d_%d <- set %d at (head %d + %d) mod %d" cls row set
        head phys len

let diff_binds ~where exp act acc =
  if List.length exp <> List.length act then
    err "YS600" "%s: prelude has %d bindings where the plan requires %d"
      where (List.length act) (List.length exp)
    :: acc
  else
    List.fold_left2
      (fun acc e a ->
        match (e, a) with
        | _ when e = a -> acc
        | Bind_ring re, Bind_ring ra
          when re.cls = ra.cls && re.row = ra.row && re.set = ra.set
               && re.head = ra.head ->
            err "YS615"
              "%s: ring row %d of class %d is bound to physical row (head + \
               %d) mod %d where the rotation requires (head + %d) mod %d"
              where ra.row ra.cls ra.phys ra.len re.phys re.len
            :: acc
        | _ ->
            err "YS611" "%s: prelude binds %s where the plan requires %s"
              where (describe_bind a) (describe_bind e)
            :: acc)
      acc exp act

let diff_out ~where exp act acc =
  match (exp, act) with
  | Out_unit { lp = e }, Out_unit { lp = a } | Out_tab { lp = e }, Out_tab { lp = a } ->
      if e <> a then
        err "YS608" "%s: output left pad %d does not match the variant's %d"
          where a e
        :: acc
      else acc
  | Out_unit _, Out_tab _ ->
      err "YS608"
        "%s: output loop uses table indirection where the variant marks the \
         output unit-stride"
        where
      :: acc
  | Out_tab _, Out_unit _ ->
      err "YS608"
        "%s: output loop uses unit-stride addressing where the variant \
         requires the offset table"
        where
      :: acc

(* The strip loops of a tape unit against the reference: the same
   classes in the same order, each with every ring row a restart
   recomputes and its newest row, each loop's body op for op. *)
let diff_tape ~plan ~inputs (exp : tape_ast) (act : tape_ast) acc =
  let acc =
    if exp.strip <> act.strip then
      err "YS600" "tape unit: strips of %d points where the driver allocates %d"
        act.strip exp.strip
      :: acc
    else acc
  in
  let acc = diff_binds ~where:"tape unit" exp.binds act.binds acc in
  if List.length exp.blocks <> List.length act.blocks then
    err "YS602"
      "tape unit: %d ringed class loops where the tape requires %d"
      (List.length act.blocks) (List.length exp.blocks)
    :: acc
  else
    let rows l = List.map (fun (l : loop) -> (l.cls, l.row)) l in
    let row_list l =
      String.concat ";" (List.map (fun (_, r) -> string_of_int r) (rows l))
    in
    let loop acc (e : loop) (a : loop) =
      let where = Printf.sprintf "class %d row %d loop" e.cls e.row in
      let acc =
        if e.span <> a.span then
          err "YS613" "%s: runs over n + %d lanes where the tape requires n + %d"
            where a.span e.span
          :: acc
        else acc
      in
      halo_bounds ~span:a.span ~where plan ~inputs a.body (diff ~where e.body a.body acc)
    in
    List.fold_left2
      (fun acc (e : block) (a : block) ->
        if rows (e.lead :: e.restart) <> rows (a.lead :: a.restart) then
          err "YS616"
            "class %d: a restart computes ring rows [%s] and a streamed row \
             [%s]; the tape requires [%s] and [%s]"
            e.lead.cls
            (row_list a.restart) (string_of_int a.lead.row) (row_list e.restart)
            (string_of_int e.lead.row)
          :: acc
        else List.fold_left2 loop (loop acc e.lead a.lead) e.restart a.restart)
      acc exp.blocks act.blocks

let refused reason =
  [ D.v D.Error ~code:"YS612"
      (Printf.sprintf "plan cannot be symbolically evaluated for validation: %s"
         reason) ]

let check ~(plan : Plan.t) ~(variant : Codegen.variant) ~inputs src =
  if
    Array.length variant.Codegen.slot_shift <> Plan.n_slots plan
    || Array.length variant.Codegen.slot_unit <> Plan.n_slots plan
  then invalid_arg "Native_lint.check: variant arity does not match the plan";
  match parse src with
  | Error (msg, line) ->
      [ D.v ~loc:(D.Line line) D.Error ~code:"YS600"
          (Printf.sprintf
             "emitted kernel unit does not parse as a generated kernel: %s"
             msg) ]
  | Ok ast -> (
      let reference =
        match plan.Plan.body with
        | Plan.Groups gs ->
            Ok (groups_expr variant gs, `Groups (groups_binds gs variant))
        | Plan.Program _ -> (
            match Lower.tape_of_plan plan with
            | None -> Error (refused "no tape")
            | Some t -> (
                match check_tape plan t with
                | [] -> (
                    match tape_ref variant t with
                    | tape, e -> Ok (e, `Tape tape))
                | ds -> Error ds)
            | exception Lower.Unresolved_coefficient n ->
                Error (refused ("unresolved coefficient " ^ n))
            | exception Invalid_argument m -> Error (refused m))
      in
      match reference with
      | exception Refused reason -> refused reason
      | Error ds -> ds
      | Ok (exp_expr, shape) ->
          let acc =
            match (shape, ast.tape) with
            | `Groups binds, None ->
                diff_binds ~where:"kern_point" binds ast.point_binds
                  (diff_binds ~where:"kern_row" binds ast.row_binds [])
            | `Tape tape, Some t -> diff_tape ~plan ~inputs tape t []
            | `Groups _, Some _ ->
                [ err "YS600" "a tape unit for a plan with an FMA-chain body" ]
            | `Tape _, None ->
                [ err "YS600" "an FMA-chain unit for a plan with a postfix body" ]
          in
          let acc = diff ~where:"kern_row body" exp_expr ast.row_expr acc in
          let acc =
            halo_bounds ~where:"kern_row body" plan ~inputs ast.row_expr acc
          in
          let acc = diff_out ~where:"kern_row" (expected_out variant) ast.row_out acc in
          let acc =
            (* when point and row diverge, give the point body its own
               verdict too *)
            if eq_expr ast.point_expr ast.row_expr then acc
            else
              halo_bounds ~where:"kern_point body" plan ~inputs ast.point_expr
                (diff ~where:"kern_point body" exp_expr ast.point_expr
                   (err "YS609"
                      "kern_point and kern_row compute different expressions \
                       (%s vs %s)"
                      (short ast.point_expr) (short ast.row_expr)
                   :: acc))
          in
          let expected_name =
            Codegen.callback_name (Codegen.key ~plan variant)
          in
          let acc =
            if String.equal ast.reg_name expected_name then acc
            else
              err "YS610"
                "kernel registers under %S, expected the ABI-versioned name \
                 %S"
                ast.reg_name expected_name
              :: acc
          in
          dedup (List.rev acc))

let validate ~plan ~variant ~inputs src =
  let ds = check ~plan ~variant ~inputs src in
  if D.has_errors ds then Error ds else Ok ()

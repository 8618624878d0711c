(* Seeded miscompile injector: mutate emitted kernel source to prove
   the YS6xx translation validator actually fires.

   Every mutation is structural: the source is parsed into the checked
   kernel AST (Stencil.Kernel_ast), one node is rewritten,
   and the result is printed back — so a mutant is always
   well-formed OCaml in the generated shape, and the only thing wrong
   with it is the miscompile itself. Site selection is driven by the
   shared splitmix64 streams, so a (seed, class, source) triple always
   yields the same mutant. *)

module NL = Yasksite_stencil.Kernel_ast
module Prng = Yasksite_util.Prng

type cls =
  | Coeff_perturb  (* one-ulp flip of a coefficient literal *)
  | Swap_assoc  (* reassociate a left-leaning [+.] chain rightward *)
  | Offset_off_by_one  (* nudge one address shift by ±1 *)
  | Drop_term  (* drop the trailing term of a sum *)
  | Wrong_slot  (* read a different data handle or row base *)
  | Point_row_diverge  (* mutate kern_point only, leave kern_row intact *)
  | Rename_registration  (* register under a non-ABI name *)
  | Tape_wrong_shift  (* read a ring buffer one lane off *)
  | Tape_wrong_class  (* read another class's ring or load row *)
  | Tape_ring_reversed  (* bind a class's ring rows walking it backwards *)
  | Tape_stale_ring  (* skip a ring row a restart must recompute *)

let classes =
  [ Coeff_perturb;
    Swap_assoc;
    Offset_off_by_one;
    Drop_term;
    Wrong_slot;
    Point_row_diverge;
    Rename_registration;
    Tape_wrong_shift;
    Tape_wrong_class;
    Tape_ring_reversed;
    Tape_stale_ring ]

let class_name = function
  | Coeff_perturb -> "coeff-perturb"
  | Swap_assoc -> "swap-assoc"
  | Offset_off_by_one -> "offset-off-by-one"
  | Drop_term -> "drop-term"
  | Wrong_slot -> "wrong-slot"
  | Point_row_diverge -> "point-row-diverge"
  | Rename_registration -> "rename-registration"
  | Tape_wrong_shift -> "tape-wrong-shift"
  | Tape_wrong_class -> "tape-wrong-class"
  | Tape_ring_reversed -> "tape-ring-reversed"
  | Tape_stale_ring -> "tape-stale-ring"

let class_of_name s =
  List.find_opt (fun c -> String.equal (class_name c) s) classes

(* The YS6xx code the validator is required to report for a mutant of
   this class (further codes may fire alongside — an off-by-one shift
   on a boundary access also escapes the halo, say). *)
let expected_code = function
  | Coeff_perturb -> "YS601"
  | Swap_assoc -> "YS602"
  | Offset_off_by_one -> "YS604"
  | Drop_term -> "YS603"
  | Wrong_slot -> "YS605"
  | Point_row_diverge -> "YS609"
  | Rename_registration -> "YS610"
  | Tape_wrong_shift -> "YS613"
  | Tape_wrong_class -> "YS614"
  | Tape_ring_reversed -> "YS615"
  | Tape_stale_ring -> "YS616"

(* ------------------------------------------------------------------ *)
(* Site-indexed rewriting over the checked AST                         *)

let count_sites f e =
  let n = ref 0 in
  let rec go e =
    (match f e with Some _ -> incr n | None -> ());
    match e with
    | NL.Lit _ | NL.Get _ | NL.Buf _ -> ()
    | NL.Neg x -> go x
    | NL.Bin (_, a, b) | NL.Fmin (a, b) | NL.Fmax (a, b) ->
        go a;
        go b
    | NL.Sel (c, a, b) ->
        go c;
        go a;
        go b
  in
  go e;
  !n

(* Replace the [site]-th node (preorder) [f] offers a rewrite for;
   other matching nodes are left alone. *)
let rewrite_site f ~site e =
  let n = ref (-1) in
  let rec go e =
    let hit =
      match f e with
      | Some e' ->
          incr n;
          if !n = site then Some e' else None
      | None -> None
    in
    match hit with
    | Some e' -> e'
    | None -> (
        match e with
        | NL.Lit _ | NL.Get _ | NL.Buf _ -> e
        | NL.Neg x -> NL.Neg (go x)
        | NL.Bin (o, a, b) -> NL.Bin (o, go a, go b)
        | NL.Fmin (a, b) -> NL.Fmin (go a, go b)
        | NL.Fmax (a, b) -> NL.Fmax (go a, go b)
        | NL.Sel (c, a, b) -> NL.Sel (go c, go a, go b))
  in
  go e

let ulp_flip c =
  NL.Lit (Int64.float_of_bits (Int64.add (Int64.bits_of_float c) 1L))

let coeff_site = function
  | NL.Lit c when c = c && c <> infinity && c <> neg_infinity ->
      Some (ulp_flip c)
  | _ -> None

let assoc_site = function
  | NL.Bin (NL.Add, NL.Bin (NL.Add, a, b), c) ->
      Some (NL.Bin (NL.Add, a, NL.Bin (NL.Add, b, c)))
  | _ -> None

let offset_site delta = function
  | NL.Get (NL.Unit_addr a) ->
      Some (NL.Get (NL.Unit_addr { a with shift = a.shift + delta }))
  | NL.Get (NL.Tab_addr a) ->
      Some (NL.Get (NL.Tab_addr { a with shift = a.shift + delta }))
  | NL.Get (NL.Lane_unit a) ->
      Some (NL.Get (NL.Lane_unit { a with shift = a.shift + delta }))
  | NL.Get (NL.Lane_tab a) ->
      Some (NL.Get (NL.Lane_tab { a with shift = a.shift + delta }))
  | _ -> None

let drop_site = function NL.Bin (NL.Add, a, _) -> Some a | _ -> None

(* [flavor]: 0 rewires the data handle, 1 the row base — both are
   wrong-slot reads the validator must pin as YS605. *)
let slot_site flavor = function
  | NL.Get (NL.Unit_addr a) ->
      Some
        (if flavor = 0 then NL.Get (NL.Unit_addr { a with data = a.data + 1 })
         else NL.Get (NL.Unit_addr { a with row = a.row + 1 }))
  | NL.Get (NL.Tab_addr a) ->
      Some
        (if flavor = 0 then NL.Get (NL.Tab_addr { a with data = a.data + 1 })
         else NL.Get (NL.Tab_addr { a with row = a.row + 1 }))
  | NL.Get (NL.Lane_unit a) ->
      Some (NL.Get (NL.Lane_unit { a with data = a.data + 1 }))
  | NL.Get (NL.Lane_tab a) -> Some (NL.Get (NL.Lane_tab { a with data = a.data + 1 }))
  | _ -> None

let lane_site delta = function
  | NL.Buf b -> Some (NL.Buf { b with lane = b.lane + delta })
  | _ -> None

(* Another class of the same kind, at the nearest ring row it has:
   [rings] and [bases] are the (class, ring length) pairs the unit
   binds. *)
let class_site ~rings ~bases e =
  let other pairs c row =
    match List.filter (fun (c', _) -> c' <> c) pairs with
    | [] -> None
    | l ->
        let c', len =
          match List.find_opt (fun (c', _) -> c' > c) l with
          | Some p -> p
          | None -> List.hd l
        in
        Some (c', min row (len - 1))
  in
  match e with
  | NL.Buf b ->
      Option.map
        (fun (cls, row) -> NL.Buf { b with cls; row })
        (other rings b.cls b.row)
  | NL.Get (NL.Lane_unit a) ->
      Option.map
        (fun base -> NL.Get (NL.Lane_unit { a with base }))
        (other bases (fst a.base) (snd a.base))
  | NL.Get (NL.Lane_tab a) ->
      Option.map
        (fun base -> NL.Get (NL.Lane_tab { a with base }))
        (other bases (fst a.base) (snd a.base))
  | _ -> None

(* ------------------------------------------------------------------ *)

(* Rewrite one site among every expression of the unit: a tape's
   class loop bodies, then the result (kern_row's, and kern_point's
   alike unless [both] is false, which mutates kern_point's alone). *)
let mutate_exprs rng f (ast : NL.unit_ast) ~both =
  let blocks =
    match ast.NL.tape with Some t when both -> t.NL.blocks | _ -> []
  in
  let bodies =
    List.concat_map
      (fun (b : NL.block) ->
        List.map (fun (l : NL.loop) -> l.NL.body) (b.NL.restart @ [ b.NL.lead ]))
      blocks
  in
  let in_loops = List.fold_left (fun n e -> n + count_sites f e) 0 bodies in
  let sites = in_loops + count_sites f ast.NL.row_expr in
  if sites = 0 then None
  else
    let site = Prng.int rng ~bound:sites in
    let base = ref 0 in
    let loop (l : NL.loop) =
      let n = count_sites f l.NL.body and b = !base in
      base := b + n;
      if site >= b && site < b + n then
        { l with NL.body = rewrite_site f ~site:(site - b) l.NL.body }
      else l
    in
    let tape =
      Option.map
        (fun (t : NL.tape_ast) ->
          if not both then t
          else
            { t with
              NL.blocks =
                List.map
                  (fun (b : NL.block) ->
                    let restart = List.map loop b.NL.restart in
                    { NL.restart; lead = loop b.NL.lead })
                  t.NL.blocks })
        ast.NL.tape
    in
    let result e =
      if site < in_loops then e else rewrite_site f ~site:(site - in_loops) e
    in
    Some
      { ast with
        NL.tape;
        row_expr = (if both then result ast.NL.row_expr else ast.NL.row_expr);
        point_expr = result ast.NL.point_expr }

let tape_pairs (ast : NL.unit_ast) =
  let binds = match ast.NL.tape with Some t -> t.NL.binds | None -> [] in
  let count f =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun b ->
        match f b with
        | Some c ->
            let n = Option.value ~default:0 (Hashtbl.find_opt tbl c) in
            Hashtbl.replace tbl c (n + 1)
        | None -> ())
      binds;
    List.sort compare (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl [])
  in
  ( count (function NL.Bind_ring r -> Some r.cls | _ -> None),
    count (function NL.Bind_base r -> Some r.cls | _ -> None) )

(* Walk one class's ring backwards: logical row [j] bound to physical
   row [(head - j) mod len]. A ring of fewer than three rows reads the
   same either way, so only longer rings are sites. *)
let reverse_ring rng (ast : NL.unit_ast) =
  let rings, _ = tape_pairs ast in
  match List.filter (fun (_, len) -> len >= 3) rings with
  | [] -> None
  | l ->
      let c, _ = List.nth l (Prng.int rng ~bound:(List.length l)) in
      Option.map
        (fun (t : NL.tape_ast) ->
          let binds =
            List.map
              (function
                | NL.Bind_ring r when r.cls = c ->
                    NL.Bind_ring { r with phys = (r.len - r.row) mod r.len }
                | b -> b)
              t.NL.binds
          in
          { ast with NL.tape = Some { t with NL.binds } })
        ast.NL.tape

(* Drop one ring row a restart must recompute: after a restart that
   row holds whatever the ring held before. *)
let stale_ring rng (ast : NL.unit_ast) =
  match ast.NL.tape with
  | None -> None
  | Some t -> (
      let sites =
        List.concat
          (List.mapi
             (fun i (b : NL.block) -> List.mapi (fun j _ -> (i, j)) b.NL.restart)
             t.NL.blocks)
      in
      match sites with
      | [] -> None
      | _ ->
          let bi, lj = List.nth sites (Prng.int rng ~bound:(List.length sites)) in
          let blocks =
            List.mapi
              (fun i (b : NL.block) ->
                if i <> bi then b
                else
                  { b with
                    NL.restart = List.filteri (fun j _ -> j <> lj) b.NL.restart })
              t.NL.blocks
          in
          Some { ast with NL.tape = Some { t with NL.blocks } })

let mutate_ast rng cls (ast : NL.unit_ast) =
  match cls with
  | Coeff_perturb -> mutate_exprs rng coeff_site ast ~both:true
  | Swap_assoc -> mutate_exprs rng assoc_site ast ~both:true
  | Offset_off_by_one ->
      let delta = if Prng.bool rng then 1 else -1 in
      mutate_exprs rng (offset_site delta) ast ~both:true
  | Drop_term -> mutate_exprs rng drop_site ast ~both:true
  | Wrong_slot ->
      let flavor = Prng.int rng ~bound:2 in
      mutate_exprs rng (slot_site flavor) ast ~both:true
  | Point_row_diverge ->
      (* a real divergence miscompile: the scalar entry point drifts
         while the row loop stays correct *)
      let f e =
        match coeff_site e with Some _ as r -> r | None -> offset_site 1 e
      in
      mutate_exprs rng f ast ~both:false
  | Rename_registration ->
      Some { ast with NL.reg_name = ast.NL.reg_name ^ "-stale" }
  | Tape_wrong_shift ->
      let delta = if Prng.bool rng then 1 else -1 in
      mutate_exprs rng (lane_site delta) ast ~both:true
  | Tape_wrong_class ->
      let rings, bases = tape_pairs ast in
      mutate_exprs rng (class_site ~rings ~bases) ast ~both:true
  | Tape_ring_reversed -> reverse_ring rng ast
  | Tape_stale_ring -> stale_ring rng ast

let mutate ~seed cls src =
  match NL.parse src with
  | Error (msg, line) ->
      Error (Printf.sprintf "source does not parse (line %d: %s)" line msg)
  | Ok ast -> (
      let rng = Prng.create ~seed in
      match mutate_ast rng cls ast with
      | None ->
          Error
            (Printf.sprintf "no %s mutation site in this kernel"
               (class_name cls))
      | Some ast' -> Ok (NL.print ast'))

let corpus ~seed ~per_class src =
  List.concat_map
    (fun cls ->
      let seen = Hashtbl.create 8 in
      List.filter_map
        (fun i ->
          match mutate ~seed:(seed + (1000 * i)) cls src with
          | Error _ -> None
          | Ok m ->
              if Hashtbl.mem seen m then None
              else begin
                Hashtbl.replace seen m ();
                Some (cls, m)
              end)
        (List.init per_class Fun.id))
    classes

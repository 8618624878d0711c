(* The kernel-plan IR and the plan execution backend.

   The contract under test: lowering a resolved stencil to a flat plan
   and sweeping it with the plan driver is *bit-identical* to the
   test-only tree-walking {!Oracle}, across ranks, layouts, blocking,
   wavefronts and both body shapes (detected linear combination and
   postfix fallback). Plus the satellite coverage: the [Lower.check]
   error paths through both backends, and the fingerprint contract that
   keys the ECM cache and tuner checkpoints. *)

module Grid = Yasksite_grid.Grid
module Machine = Yasksite_arch.Machine
module Hierarchy = Yasksite_cachesim.Hierarchy
module Spec = Yasksite_stencil.Spec
module Analysis = Yasksite_stencil.Analysis
module Suite = Yasksite_stencil.Suite
module Gen = Yasksite_stencil.Gen
module Dsl = Yasksite_stencil.Dsl
module Expr = Yasksite_stencil.Expr
module Plan = Yasksite_stencil.Plan
module Lower = Yasksite_stencil.Lower
module Config = Yasksite_ecm.Config
module Sweep = Yasksite_engine.Sweep
module Wavefront = Yasksite_engine.Wavefront
module Sanitizer = Yasksite_engine.Sanitizer
module Native = Yasksite_engine.Native
module Codegen = Yasksite_stencil.Codegen
module Prng = Yasksite_util.Prng
module Pool = Yasksite_util.Pool

let qt = QCheck_alcotest.to_alcotest

let make_grid ?(layout = Grid.Linear) ~halo ~dims seed =
  let rng = Prng.create ~seed in
  let g = Grid.create ~halo ~layout ~dims () in
  Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
  Grid.halo_dirichlet g 0.25;
  g

(* Dividing by 1.0 is exact for every float and defeats the
   linear-combination detector, forcing the postfix-program body. *)
let force_program spec =
  Spec.v ~name:spec.Spec.name ~rank:spec.Spec.rank
    ~n_fields:spec.Spec.n_fields
    Dsl.(spec.Spec.expr /: c 1.0)

(* One sweep of a random stencil on the plan backend against the
   oracle over the same input: outputs must be bit-identical, and the
   stats must count exactly the iteration space. Exercised over ranks
   1..3, both body shapes, folded layouts and spatial blocking. *)
let sweep_matches_oracle ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank () in
  let spec = if Prng.int rng ~bound:2 = 0 then force_program spec else spec in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:10) in
  let layout =
    if Prng.int rng ~bound:2 = 0 then Grid.Linear
    else begin
      let f = Array.make rank 1 in
      f.(rank - 1) <- 2;
      if rank > 1 then f.(rank - 2) <- 2;
      Grid.Folded f
    end
  in
  let cfg =
    let fold = match layout with Grid.Folded f -> Some f | _ -> None in
    let block =
      if Prng.int rng ~bound:2 = 0 then begin
        let b = Array.map (fun d -> 1 + Prng.int rng ~bound:d) dims in
        b.(0) <- 0;
        Some b
      end
      else None
    in
    Config.v ?fold ?block ()
  in
  let a = make_grid ~layout ~halo ~dims (seed + 1000) in
  let o_plan = Grid.create ~halo ~layout ~dims () in
  let s =
    Sweep.run ~backend:Sweep.Plan_backend ~config:cfg spec ~inputs:[| a |]
      ~output:o_plan
  in
  let o_oracle = Grid.create ~halo ~layout ~dims () in
  Oracle.sweep spec ~inputs:[| a |] ~output:o_oracle;
  Grid.max_abs_diff o_plan o_oracle = 0.0
  && s.Sweep.points = Array.fold_left ( * ) 1 dims

let plan_backend_matches_oracle =
  QCheck.Test.make ~name:"plan backend bit-reproduces the oracle"
    ~count:120 QCheck.small_int (fun seed -> sweep_matches_oracle ~seed)

(* The same contract through the temporal-blocking path: random
   wavefront depth and (legal) stagger, per-direction plan reuse,
   against [steps] oracle sweeps. *)
let wavefront_matches_oracle ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank () in
  let spec = if Prng.int rng ~bound:2 = 0 then force_program spec else spec in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
  let steps = 1 + Prng.int rng ~bound:4 in
  let wf = 2 + Prng.int rng ~bound:3 in
  let stagger = halo.(0) + 1 + Prng.int rng ~bound:2 in
  let cfg = Config.v ~wavefront:wf ~wavefront_stagger:stagger () in
  let a = make_grid ~halo ~dims (seed + 1) in
  let b = make_grid ~halo ~dims (seed + 2) in
  let final, _ =
    Wavefront.steps ~backend:Sweep.Plan_backend ~config:cfg spec ~a ~b ~steps
  in
  let expected =
    Oracle.steps spec ~a:(make_grid ~halo ~dims (seed + 1))
      ~b:(make_grid ~halo ~dims (seed + 2)) ~steps
  in
  Grid.max_abs_diff final expected = 0.0

let wavefront_backend_parity =
  QCheck.Test.make ~name:"wavefront agrees across backends" ~count:60
    QCheck.small_int (fun seed -> wavefront_matches_oracle ~seed)

(* Tracing must not perturb results (the traced path routes addresses
   through the plan's access table and evaluates point by point). *)
let traced_matches_oracle ~seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let spec = Gen.spec rng ~rank () in
  let info = Analysis.of_spec spec in
  let halo = Analysis.halo info in
  let dims = Array.init rank (fun _ -> 6 + Prng.int rng ~bound:8) in
  let a = make_grid ~halo ~dims (seed + 7) in
  let o = Grid.create ~halo ~dims () in
  let trace = Hierarchy.create Machine.test_chip in
  let _ =
    Sweep.run ~backend:Sweep.Plan_backend ~trace spec ~inputs:[| a |]
      ~output:o
  in
  let expected = Grid.create ~halo ~dims () in
  Oracle.sweep spec ~inputs:[| a |] ~output:expected;
  Grid.max_abs_diff o expected = 0.0

let traced_backend_parity =
  QCheck.Test.make ~name:"traced sweep agrees across backends" ~count:40
    QCheck.small_int (fun seed -> traced_matches_oracle ~seed)

(* ------------------------------------------------------------------ *)
(* The shift-classed tape behind Program bodies.                       *)

(* The strip length the interpreter batches rows into. *)
let strip = 128

(* Row-major iteration over the box [lo, hi). *)
let iter_box lo hi f =
  let rank = Array.length lo in
  let idx = Array.copy lo in
  let rec go d =
    if d = rank then f idx
    else
      for i = lo.(d) to hi.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

let same_bits_in lo hi a b =
  let ok = ref true in
  iter_box lo hi (fun idx ->
      if
        not
          (Int64.equal
             (Int64.bits_of_float (Grid.get a idx))
             (Int64.bits_of_float (Grid.get b idx)))
      then ok := false);
  !ok

let same_bits a b =
  let dims = Grid.dims a in
  same_bits_in (Array.make (Array.length dims) 0) dims a b

(* A random expression shaped like [Program.fuse] output: a few
   producer subtrees, each substituted at shifted offsets, so equal
   subterms recur (at least one use appears twice verbatim) and value
   numbering has work to do. [shifts] says where the uses shift:
   [`Any] along every dimension by -1..1; [`Lanes] along the last
   dimension only by -2..2, as the flux stages of a fused hdiff read a
   Laplacian at x-1, x and x+1; [`Plane] along the last two dimensions
   by -2..2, as a fused hdiff output stage reads fluxes at y-1 and x-1.
   Uses that differ only by a shift along the row and lane dimensions
   merge into one shift class, whose rows the interpreter keeps in a
   ring while it streams. Every operator is drawn, division included:
   infinities and NaNs must reproduce to the bit as well. *)
let fused_expr rng ~rank ~n_fields ~shifts =
  let off () = Array.init rank (fun _ -> Prng.int rng ~bound:3 - 1) in
  let use_off () =
    match shifts with
    | `Any -> off ()
    | `Lanes ->
        Array.init rank (fun d ->
            if d = rank - 1 then Prng.int rng ~bound:5 - 2 else 0)
    | `Plane ->
        Array.init rank (fun d ->
            if d >= rank - 2 then Prng.int rng ~bound:5 - 2 else 0)
  in
  let leaf () =
    if Prng.int rng ~bound:4 = 0 then
      Expr.Const (Prng.float_range rng ~lo:(-2.0) ~hi:2.0)
    else Expr.Ref { field = Prng.int rng ~bound:n_fields; offsets = off () }
  in
  let rec tree d =
    if d = 0 then leaf ()
    else begin
      let a = tree (d - 1) in
      let b = tree (d - 1) in
      match Prng.int rng ~bound:8 with
      | 0 -> Expr.Neg a
      | 1 -> Expr.Add (a, b)
      | 2 -> Expr.Sub (a, b)
      | 3 -> Expr.Mul (a, b)
      | 4 -> Expr.Div (a, b)
      | 5 -> Expr.Min (a, b)
      | 6 -> Expr.Max (a, b)
      | _ -> Expr.Select (a, b, tree (d - 1))
    end
  in
  let producers =
    Array.init (1 + Prng.int rng ~bound:3) (fun _ ->
        tree (1 + Prng.int rng ~bound:3))
  in
  let use () =
    let p = producers.(Prng.int rng ~bound:(Array.length producers)) in
    let o = use_off () in
    Expr.map_accesses
      (fun a -> { a with Expr.offsets = Array.map2 ( + ) a.Expr.offsets o })
      p
  in
  let rec consumer d =
    if d = 0 then use ()
    else begin
      let a = consumer (d - 1) in
      let b = consumer (d - 1) in
      match Prng.int rng ~bound:4 with
      | 0 -> Expr.Add (a, b)
      | 1 -> Expr.Sub (a, b)
      | 2 -> Expr.Mul (a, b)
      | _ -> Expr.Select (a, b, use ())
    end
  in
  let twice = use () in
  let centre = Expr.Ref { field = 0; offsets = Array.make rank 0 } in
  (* The division by 1.0 keeps the body a postfix program. *)
  Expr.Div
    ( Expr.Add (Expr.Add (consumer (1 + Prng.int rng ~bound:2), centre),
        Expr.Mul (twice, twice)),
      Expr.Const 1.0 )

(* Last-dimension extents: 1..7 and 4k +- 1 around [strip] land in the
   unrolled loops' scalar remainder; the others cover a row shorter
   than, equal to and longer than one strip. *)
let row_length rng =
  match Prng.int rng ~bound:5 with
  | 0 -> 1 + Prng.int rng ~bound:7
  | 1 -> 2 + Prng.int rng ~bound:(strip - 2)
  | 2 -> strip
  | 3 -> strip + 1 + Prng.int rng ~bound:(strip - 2)
  | _ ->
      (4 * ((strip / 4) - 2 + Prng.int rng ~bound:5))
      + if Prng.bool rng then 1 else -1

(* Row strips, pooled row strips, traced points and a hand-driven walk
   over the rows against the oracle, on plain and on extended sweeps.
   Rows stream through the rings over up to 9 rows per block column;
   rank-3 configs block y as well, so every stream restarts at each
   y-block and each z. An extended sweep ([Sweep.run ~extend], the
   program executor's way of computing a stage into its halo) gets every input
   halo at exactly the gated minimum — the field's read radius plus the
   extension — so the class hulls of the outermost points reach the
   edge of the allocation. Halos hold random values too, so a lane
   computed from the wrong neighbour shows. On [Codegen_backend] every
   run (the hand walk included, through [Codegen.store_row]/[eval] on
   the same driver) uses the compiled tape kernel, which must exist
   wherever kernels can be built. *)
let tape_matches_oracle ?(backend = Sweep.Plan_backend) ~seed () =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let n_fields = 1 + Prng.int rng ~bound:2 in
  let shifts =
    match Prng.int rng ~bound:3 with 0 -> `Any | 1 -> `Lanes | _ -> `Plane
  in
  let spec =
    Spec.v ~name:"fused" ~rank ~n_fields
      (fused_expr rng ~rank ~n_fields ~shifts)
  in
  let info = Analysis.of_spec spec in
  let dims =
    Array.init rank (fun i ->
        if i = rank - 1 then row_length rng
        else if i = rank - 2 then 1 + Prng.int rng ~bound:9
        else 1 + Prng.int rng ~bound:3)
  in
  let extend =
    if Prng.int rng ~bound:3 = 0 then
      Some (Array.init rank (fun _ -> 1 + Prng.int rng ~bound:2))
    else None
  in
  let ext d = match extend with Some e -> e.(d) | None -> 0 in
  let field_halo f =
    let r = Array.init rank ext in
    List.iter
      (Array.iteri (fun d o -> r.(d) <- max r.(d) (abs o + ext d)))
      (Analysis.accesses_of_field info f);
    r
  in
  let layout =
    if Prng.bool rng then Grid.Linear
    else begin
      let f = Array.make rank 1 in
      f.(rank - 1) <- 2;
      if rank > 1 then f.(rank - 2) <- 2;
      Grid.Folded f
    end
  in
  let fold = match layout with Grid.Folded f -> Some f | _ -> None in
  let block =
    if Prng.bool rng then begin
      let b = Array.map (fun d -> 1 + Prng.int rng ~bound:d) dims in
      if rank > 1 then b.(0) <- 0;
      Some b
    end
    else None
  in
  let cfg = Config.v ?fold ?block () in
  let inputs =
    Array.init n_fields (fun f ->
        let halo = field_halo f in
        let g = Grid.create ~halo ~layout ~dims () in
        let vals = Prng.create ~seed:(seed + f) in
        iter_box (Array.map ( ~- ) halo)
          (Array.mapi (fun d n -> n + halo.(d)) dims)
          (fun idx ->
            Grid.set g idx (Prng.float_range vals ~lo:(-1.0) ~hi:1.0));
        g)
  in
  let lo = Array.init rank (fun d -> -ext d)
  and hi = Array.mapi (fun d n -> n + ext d) dims in
  let halo = Array.init rank (fun d -> max 1 (ext d)) in
  let expected = Grid.create ~halo ~layout ~dims () in
  iter_box lo hi (fun idx ->
      Grid.set expected idx (Oracle.point spec ~inputs idx));
  let rows = Grid.create ~halo ~layout ~dims () in
  ignore (Sweep.run ~backend ~config:cfg ?extend spec ~inputs ~output:rows);
  let pooled = Grid.create ~halo ~layout ~dims () in
  Pool.with_pool ~domains:2 (fun pool ->
      ignore
        (Sweep.run ~pool ~backend ~config:cfg ?extend spec ~inputs
           ~output:pooled));
  let points = Grid.create ~halo ~layout ~dims () in
  ignore
    (Sweep.run ~backend ~config:cfg ?extend
       ~trace:(Hierarchy.create Machine.test_chip) spec ~inputs ~output:points);
  (* The same bound driven by hand off the sweep's order: streams broken
     by row jumps and repeats, segments changed at either end, one-point
     evals in between. Every step must match the oracle. *)
  let walked = Grid.create ~halo ~layout ~dims () in
  let plan = Lower.lower spec in
  let drv = Lower.driver (Lower.bind plan ~inputs ~output:walked) in
  let kern =
    match backend with
    | Sweep.Codegen_backend -> Native.kern_for ~plan ~inputs ~output:walked
    | Sweep.Plan_backend -> None
  in
  let store_row, eval =
    match kern with
    | Some k -> (Codegen.store_row k drv, Codegen.eval k drv)
    | None -> (Lower.store_row drv, Lower.eval drv)
  in
  let r1 = rank - 1 in
  let outer = Array.sub lo 0 r1 and xb = ref lo.(r1) and xe = ref hi.(r1) in
  let between a b = a + Prng.int rng ~bound:(b - a) in
  let walk_ok = ref true in
  for _ = 1 to 24 do
    (if Prng.int rng ~bound:4 = 0 then
       Array.iteri (fun d _ -> outer.(d) <- between lo.(d) hi.(d)) outer
     else if r1 > 0 then
       outer.(r1 - 1) <- min (hi.(r1 - 1) - 1) (outer.(r1 - 1) + 1));
    (match Prng.int rng ~bound:4 with
    | 0 -> xb := between lo.(r1) !xe
    | 1 -> xe := between !xb hi.(r1) + 1
    | _ -> ());
    Lower.set_row drv outer;
    let same idx v =
      Int64.equal (Int64.bits_of_float v)
        (Int64.bits_of_float (Grid.get expected idx))
    in
    if Prng.int rng ~bound:8 = 0 then begin
      let x = between !xb !xe in
      if not (same (Array.append outer [| x |]) (eval x)) then
        walk_ok := false
    end
    else begin
      store_row !xb !xe;
      for x = !xb to !xe - 1 do
        let idx = Array.append outer [| x |] in
        if not (same idx (Grid.get walked idx)) then walk_ok := false
      done
    end
  done;
  (backend = Sweep.Plan_backend || kern <> None || not (Native.available ()))
  && same_bits_in lo hi rows expected
  && same_bits_in lo hi pooled expected
  && same_bits_in lo hi points expected
  && !walk_ok

let tape_property =
  QCheck.Test.make
    ~name:"tape: row strips and traced points bit-reproduce the oracle"
    ~count:300 QCheck.small_int (fun seed -> tape_matches_oracle ~seed ())

(* The rings outside the sweep's order: [Lower.set_row]/[store_row]
   driven by hand over rows that do not stream — backwards, skipping,
   repeating a row, changing [xb] or [xe], a rank-3 row whose y follows
   the last but whose z does not, a one-point [eval] in between — must
   restart rather than reuse a stale ring. Each step is checked against
   the oracle right after the call. On [Codegen_backend] the compiled
   tape kernel runs on the same driver. *)
let tape_row_orders ?(backend = Sweep.Plan_backend) () =
  let run name spec ~dims steps =
    let halo = Analysis.halo (Analysis.of_spec spec) in
    let inputs =
      Array.init spec.Spec.n_fields (fun f ->
          let g = Grid.create ~halo ~dims () in
          let vals = Prng.create ~seed:(31 + f) in
          iter_box (Array.map ( ~- ) halo)
            (Array.mapi (fun d n -> n + halo.(d)) dims)
            (fun idx ->
              Grid.set g idx (Prng.float_range vals ~lo:(-1.0) ~hi:1.0));
          g)
    in
    let output = Grid.create ~halo ~dims () in
    let plan = Lower.lower spec in
    let drv = Lower.driver (Lower.bind plan ~inputs ~output) in
    let store_row, eval =
      match backend with
      | Sweep.Plan_backend -> (Lower.store_row drv, Lower.eval drv)
      | Sweep.Codegen_backend -> (
          match Native.kern_for ~plan ~inputs ~output with
          | Some k -> (Codegen.store_row k drv, Codegen.eval k drv)
          | None ->
              if Native.available () then
                Alcotest.failf "%s: no compiled kernel" name;
              (Lower.store_row drv, Lower.eval drv))
    in
    let check i outer x got =
      let idx = Array.append outer [| x |] in
      let want = Oracle.point spec ~inputs idx in
      if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))
      then
        Alcotest.failf "%s, step %d: point (%s) is %h, the oracle says %h"
          name i
          (String.concat "," (Array.to_list (Array.map string_of_int idx)))
          got want
    in
    List.iteri
      (fun i (step, outer) ->
        Lower.set_row drv outer;
        match step with
        | `Row (xb, xe) ->
            store_row xb xe;
            for x = xb to xe - 1 do
              check i outer x (Grid.get output (Array.append outer [| x |]))
            done
        | `Point x -> check i outer x (eval x))
      steps
  in
  let nx = strip + 22 in
  let row y xb xe = (`Row (xb, xe), [| y |]) in
  let all y = row y 0 nx in
  let uout =
    let module P = Yasksite_stencil.Program in
    let p = P.fuse Suite.hdiff ~inline:(P.inlinable Suite.hdiff) in
    P.stage_spec p (Option.get (P.find_stage p "uout"))
  in
  run "fused hdiff uout" uout ~dims:[| 12; nx |]
    [ all 0; all 1; all 2; (* a stream *)
      all 7; all 6; all 5; (* backwards *)
      all 6; all 8; all 10; (* skipping *)
      all 10; all 10; (* repeating *)
      all 0; row 1 3 nx; row 2 3 (nx - 5); row 3 0 (nx - 5); all 4;
      (* a changed segment *)
      all 5; (`Point 7, [| 5 |]); all 6; (* an eval in between *)
      all 7; (`Point (nx - 1), [| 8 |]); all 8;
      row 9 (strip - 1) (strip + 2); row 10 (strip - 1) (strip + 2);
      row 11 (strip - 1) (strip + 2) ];
  let rank = 3 in
  let spec =
    Spec.v ~name:"fused3" ~rank ~n_fields:2
      (fused_expr (Prng.create ~seed:5) ~rank ~n_fields:2 ~shifts:`Plane)
  in
  let at z y = (`Row (0, nx), [| z; y |]) in
  run "rank-3 fused" spec ~dims:[| 3; 7; nx |]
    [ at 0 0; at 0 1; at 0 2; (* a stream *)
      at 1 3; at 1 4; (* y follows on, z does not *)
      at 2 0; at 2 1; at 1 2; at 1 3; at 0 4; at 0 5; at 0 6 ]

(* Constants are numbered by bit pattern: [0.0] and [-0.0], and two NaNs
   with different payloads, are distinct registers. Merging either pair
   would make both select arms produce the same bits. *)
let test_tape_constant_bits () =
  let nan1 = Int64.float_of_bits 0x7FF8000000000001L
  and nan2 = Int64.float_of_bits 0x7FF8000000000002L in
  let n = strip + 6 in
  let g = Grid.create ~halo:[| 1 |] ~dims:[| n |] () in
  Grid.fill g ~f:(fun idx -> if idx.(0) mod 3 = 0 then 1.0 else -1.0);
  let cond = Expr.Ref { field = 0; offsets = [| 0 |] } in
  List.iter
    (fun (name, a, b) ->
      let spec =
        Spec.v ~name ~rank:1 (Expr.Select (cond, Expr.Const a, Expr.Const b))
      in
      let bits x = Int64.bits_of_float x in
      let check_grid how o =
        Grid.iter_interior o ~f:(fun idx ->
            let want = if idx.(0) mod 3 = 0 then a else b in
            Alcotest.(check int64)
              (Printf.sprintf "%s, %s, x=%d" name how idx.(0))
              (bits want)
              (bits (Grid.get o idx)))
      in
      let rows = Grid.create ~halo:[| 1 |] ~dims:[| n |] () in
      ignore
        (Sweep.run ~backend:Sweep.Plan_backend spec ~inputs:[| g |]
           ~output:rows);
      check_grid "row strips" rows;
      let points = Grid.create ~halo:[| 1 |] ~dims:[| n |] () in
      ignore
        (Sweep.run ~backend:Sweep.Plan_backend
           ~trace:(Hierarchy.create Machine.test_chip) spec ~inputs:[| g |]
           ~output:points);
      check_grid "traced points" points;
      let expected = Grid.create ~halo:[| 1 |] ~dims:[| n |] () in
      Oracle.sweep spec ~inputs:[| g |] ~output:expected;
      Alcotest.(check bool) (name ^ ": oracle agrees") true
        (same_bits rows expected))
    [ ("signed zeros", 0.0, -0.0); ("NaN payloads", nan1, nan2) ]

(* The structural win of shift classes, pinned: a fused hdiff output
   stage reads each Laplacian and flux subterm at shifts along y and x,
   which value numbering alone kept as separate nodes (46 nodes, 14
   loads) and x-only shift classes merged only along x (32, 6); 2-D
   shift classes merge them all, so a streamed row computes 18 nodes
   and 2 loads per point. The unfused limiter stage merges only its
   loads. Losing the shift matching would still pass every
   bit-identity test, so the counts are the guard. *)
let test_hdiff_tape_counts () =
  let module P = Yasksite_stencil.Program in
  let counts prog name =
    let spec = P.stage_spec prog (Option.get (P.find_stage prog name)) in
    let halo = Analysis.halo (Analysis.of_spec spec) in
    let dims = [| 8; 8 |] in
    let inputs =
      Array.init spec.Spec.n_fields (fun i -> make_grid ~halo ~dims i)
    in
    let output = Grid.create ~halo ~dims () in
    Lower.tape_counts (Lower.bind (Lower.lower spec) ~inputs ~output)
  in
  let p = Suite.hdiff in
  let fused = P.fuse p ~inline:(P.inlinable p) in
  Array.iter
    (fun out ->
      Alcotest.(check (option (pair int int)))
        ("fused " ^ out ^ ": (nodes, loads)") (Some (18, 2)) (counts fused out))
    p.P.outputs;
  Alcotest.(check (option (pair int int)))
    "unfused ufli: (nodes, loads)" (Some (4, 2)) (counts p "ufli");
  Alcotest.(check (option (pair int int)))
    "an FMA-chain body has no tape" None (counts p "ulap")

(* ------------------------------------------------------------------ *)
(* Plan structure and fingerprints.                                    *)

let heat2 = Suite.resolve_defaults Suite.heat_2d_5pt

let test_groups_detected () =
  let plan = Lower.lower heat2 in
  (match plan.Plan.body with
  | Plan.Groups _ -> ()
  | Plan.Program _ ->
      Alcotest.fail "heat 5pt should lower to an FMA-chain (Groups) body");
  Alcotest.(check bool) "resolved" true (Plan.resolved plan);
  let info = Analysis.of_spec heat2 in
  Alcotest.(check int) "one slot per distinct access"
    (List.length info.Analysis.accesses)
    (Plan.n_slots plan)

let test_program_fallback () =
  let spec =
    Spec.v ~name:"div" ~rank:1 Dsl.(fld [ 0 ] /: (c 2.0 +: fld [ 1 ]))
  in
  match (Lower.lower spec).Plan.body with
  | Plan.Program _ -> ()
  | Plan.Groups _ -> Alcotest.fail "division should fall back to Program"

let test_fingerprint_ignores_name () =
  let e = Dsl.(c 0.5 *: (fld [ -1 ] +: fld [ 1 ])) in
  let a = Spec.v ~name:"a" ~rank:1 e in
  let b = Spec.v ~name:"b" ~rank:1 e in
  Alcotest.(check string) "same kernel, same digest" (Lower.fingerprint a)
    (Lower.fingerprint b);
  let c' = Spec.v ~name:"a" ~rank:1 Dsl.(c 0.25 *: (fld [ -1 ] +: fld [ 1 ])) in
  Alcotest.(check bool) "coefficient changes the digest" false
    (Lower.fingerprint a = Lower.fingerprint c')

let test_fingerprint_matches_plan () =
  let spec = heat2 in
  let plan = Lower.lower spec in
  Alcotest.(check string) "Lower.fingerprint = plan.fingerprint"
    plan.Plan.fingerprint (Lower.fingerprint spec);
  Alcotest.(check bool) "digest is hex of fixed width" true
    (String.length plan.Plan.fingerprint = 32)

let test_unresolved_plan () =
  let spec = Spec.v ~name:"sym" ~rank:1 Dsl.(p "r" *: fld [ 0 ]) in
  let plan = Lower.lower spec in
  Alcotest.(check bool) "symbolic plan is unresolved" false
    (Plan.resolved plan);
  (* Still fingerprintable: the digest covers the symbol name. *)
  let other = Spec.v ~name:"sym" ~rank:1 Dsl.(p "q" *: fld [ 0 ]) in
  Alcotest.(check bool) "symbol name is part of the digest" false
    (Lower.fingerprint spec = Lower.fingerprint other);
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 11 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  Alcotest.check_raises "bind refuses symbolic plans"
    (Lower.Unresolved_coefficient "r") (fun () ->
      ignore (Lower.bind plan ~inputs:[| g |] ~output:o))

(* ------------------------------------------------------------------ *)
(* Error paths: Lower.check, and the same violations pushed through
   Sweep.run on each backend (gates off, so the binding's own
   validation is what fires).                                          *)

let contains = Astring_contains.contains

let backends = [ Sweep.Plan_backend; Sweep.Codegen_backend ]

let raises_invalid ~substr f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument (%s)" substr
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message %S mentions %S" msg substr)
        true (contains msg substr)

let heat1 = Spec.v ~name:"heat1" ~rank:1
    Dsl.(c 0.25 *: fld [ -1 ] +: (c 0.5 *: fld [ 0 ]) +: (c 0.25 *: fld [ 1 ]))

let wide1 = Spec.v ~name:"wide1" ~rank:1 Dsl.(fld [ -2 ] +: fld [ 2 ])

let test_check_field_count () =
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 1 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  raises_invalid ~substr:"field" (fun () ->
      Lower.check (Lower.lower heat1) ~inputs:[| g; g |] ~output:o);
  List.iter
    (fun backend ->
      raises_invalid ~substr:"field" (fun () ->
          Sweep.run ~backend ~check:false heat1 ~inputs:[| g; g |] ~output:o))
    backends

let test_check_rank () =
  let g1 = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 2 in
  let heat2s = heat2 in
  let g2 = make_grid ~halo:[| 1; 1 |] ~dims:[| 8; 8 |] 3 in
  let o2 = Grid.create ~halo:[| 1; 1 |] ~dims:[| 8; 8 |] () in
  raises_invalid ~substr:"rank" (fun () ->
      Lower.check (Lower.lower heat2s) ~inputs:[| g1 |] ~output:o2);
  (* Output rank is checked too. *)
  let o1 = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  raises_invalid ~substr:"rank" (fun () ->
      Lower.check (Lower.lower heat2s) ~inputs:[| g2 |] ~output:o1)

let test_check_halo () =
  let thin = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 4 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  raises_invalid ~substr:"halo" (fun () ->
      Lower.check (Lower.lower wide1) ~inputs:[| thin |] ~output:o);
  List.iter
    (fun backend ->
      raises_invalid ~substr:"halo" (fun () ->
          Sweep.run ~backend ~check:false wide1 ~inputs:[| thin |] ~output:o))
    backends

(* Building the tape is total: a malformed postfix body is refused by
   [Lower.bind] with a located [Invalid_argument], never an escaped
   stack exception or an unchecked read. *)
let test_malformed_program_refused () =
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 7 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  let accesses = [| { Expr.field = 0; offsets = [| 0 |] } |] in
  List.iter
    (fun (what, code, depth, substr) ->
      let plan =
        Plan.v ~name:what ~rank:1 ~n_fields:1 ~accesses
          ~body:(Plan.Program { code; depth })
      in
      raises_invalid ~substr (fun () ->
          Lower.bind plan ~inputs:[| g |] ~output:o);
      raises_invalid ~substr (fun () ->
          Sweep.run ~backend:Sweep.Plan_backend ~check:false ~plan
            heat1 ~inputs:[| g |] ~output:o))
    [ ("underflow", [| Plan.Load 0; Plan.Add |], 1, "Lower: postfix stack underflow");
      ("empty", [||], 0, "Lower: postfix program leaves 0 values");
      ( "leftover",
        [| Plan.Load 0; Plan.Push 1.0 |], 2,
        "Lower: postfix program leaves 2 values" );
      ( "past declared depth",
        [| Plan.Load 0; Plan.Load 0; Plan.Add |], 1,
        "Lower: postfix instruction 1 exceeds" );
      ("dangling slot", [| Plan.Load 3 |], 1, "Lower: postfix instruction 0 loads slot 3") ]

let test_unresolved_both_backends () =
  let spec = Spec.v ~name:"sym" ~rank:1 Dsl.(p "r" *: fld [ 0 ]) in
  let g = make_grid ~halo:[| 1 |] ~dims:[| 8 |] 5 in
  let o = Grid.create ~halo:[| 1 |] ~dims:[| 8 |] () in
  List.iter
    (fun backend ->
      Alcotest.check_raises
        (Sweep.backend_name backend ^ " refuses unresolved coefficients")
        (Lower.Unresolved_coefficient "r") (fun () ->
          ignore
            (Sweep.run ~backend ~check:false spec ~inputs:[| g |] ~output:o)))
    backends;
  (* The oracle refuses the same symbol. *)
  Alcotest.check_raises "the oracle refuses unresolved coefficients"
    (Oracle.Unresolved "r") (fun () ->
      Oracle.sweep spec ~inputs:[| g |] ~output:o)

(* The dynamic sanitizer reaches the same verdict on both backends:
   an aliased in-place sweep traps YS452 either way. *)
let test_sanitizer_verdict_parity () =
  List.iter
    (fun backend ->
      let g = make_grid ~halo:[| 1 |] ~dims:[| 12 |] 6 in
      let san = Sanitizer.create () in
      let code =
        try
          ignore
            (Sweep.run ~backend ~check:false ~sanitize:san heat1
               ~inputs:[| g |] ~output:g);
          None
        with Sanitizer.Trap t -> Some (Sanitizer.code_of_kind t.Sanitizer.kind)
      in
      Alcotest.(check (option string))
        (Sweep.backend_name backend ^ " traps the aliased sweep")
        (Some "YS452") code)
    backends

(* ------------------------------------------------------------------ *)
(* Backend selection.                                                  *)

let test_backend_selection () =
  let original = Sweep.default_backend () in
  Sweep.set_default_backend Sweep.Codegen_backend;
  Alcotest.(check string) "override to codegen" "codegen"
    (Sweep.backend_name (Sweep.default_backend ()));
  Sweep.set_default_backend Sweep.Plan_backend;
  Alcotest.(check string) "override to plan" "plan"
    (Sweep.backend_name (Sweep.default_backend ()));
  (* Restore whatever the environment selected for this test run. *)
  Sweep.set_default_backend original

let suite =
  [ qt plan_backend_matches_oracle;
    qt wavefront_backend_parity;
    qt traced_backend_parity;
    qt tape_property;
    Alcotest.test_case "tape rings restart off the streaming order" `Quick
      (tape_row_orders ~backend:Sweep.Plan_backend);
    Alcotest.test_case "tape keeps signed zeros and NaN payloads apart"
      `Quick test_tape_constant_bits;
    Alcotest.test_case "shift classes shrink the fused hdiff tapes" `Quick
      test_hdiff_tape_counts;
    Alcotest.test_case "heat 5pt lowers to Groups" `Quick test_groups_detected;
    Alcotest.test_case "division falls back to Program" `Quick
      test_program_fallback;
    Alcotest.test_case "fingerprint ignores the kernel name" `Quick
      test_fingerprint_ignores_name;
    Alcotest.test_case "Lower.fingerprint matches the plan" `Quick
      test_fingerprint_matches_plan;
    Alcotest.test_case "symbolic plans fingerprint but refuse to bind" `Quick
      test_unresolved_plan;
    Alcotest.test_case "field-count mismatch rejected everywhere" `Quick
      test_check_field_count;
    Alcotest.test_case "rank mismatch rejected everywhere" `Quick
      test_check_rank;
    Alcotest.test_case "insufficient halo rejected everywhere" `Quick
      test_check_halo;
    Alcotest.test_case "malformed postfix programs refused at bind" `Quick
      test_malformed_program_refused;
    Alcotest.test_case "unresolved coefficient rejected on both backends"
      `Quick test_unresolved_both_backends;
    Alcotest.test_case "sanitizer verdict identical across backends" `Quick
      test_sanitizer_verdict_parity;
    Alcotest.test_case "backend override and restore" `Quick
      test_backend_selection ]

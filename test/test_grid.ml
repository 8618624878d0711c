module Grid = Yasksite_grid.Grid
module Prng = Yasksite_util.Prng

let qt = QCheck_alcotest.to_alcotest

let test_create_validation () =
  Alcotest.check_raises "rank 0" (Invalid_argument "Grid.create: rank must be 1..3")
    (fun () -> ignore (Grid.create ~dims:[||] ()));
  Alcotest.check_raises "bad extent"
    (Invalid_argument "Grid.create: non-positive extent") (fun () ->
      ignore (Grid.create ~dims:[| 4; 0 |] ()));
  Alcotest.check_raises "halo rank"
    (Invalid_argument "Grid.create: halo rank mismatch") (fun () ->
      ignore (Grid.create ~halo:[| 1 |] ~dims:[| 4; 4 |] ()))

let test_get_set_roundtrip () =
  let g = Grid.create ~halo:[| 1; 2; 1 |] ~dims:[| 3; 4; 5 |] () in
  Grid.set g [| 1; 2; 3 |] 42.0;
  Alcotest.(check (float 0.0)) "roundtrip" 42.0 (Grid.get g [| 1; 2; 3 |]);
  Grid.set g [| -1; -2; -1 |] 7.0;
  Alcotest.(check (float 0.0)) "halo roundtrip" 7.0 (Grid.get g [| -1; -2; -1 |]);
  Alcotest.check_raises "oob"
    (Invalid_argument "Grid.offset_of: coordinate 4 out of range in dim 0")
    (fun () -> ignore (Grid.get g [| 4; 0; 0 |]))

(* Derive a deterministic random grid shape from a seed. *)
let shape_of_seed seed =
  let rng = Prng.create ~seed in
  let rank = 1 + Prng.int rng ~bound:3 in
  let dims = Array.init rank (fun _ -> 2 + Prng.int rng ~bound:7) in
  let halo = Array.init rank (fun _ -> Prng.int rng ~bound:3) in
  let layout =
    if Prng.bool rng then Grid.Linear
    else Grid.Folded (Array.init rank (fun _ -> 1 + Prng.int rng ~bound:3))
  in
  (rng, rank, dims, halo, layout)

let offsets_bijective =
  QCheck.Test.make ~name:"offset_of is injective over the halo box" ~count:100
    QCheck.small_int (fun seed ->
      let _, rank, dims, halo, layout = shape_of_seed seed in
      let g = Grid.create ~halo ~layout ~dims () in
      let seen = Hashtbl.create 97 in
      let ok = ref true in
      let idx = Array.make rank 0 in
      let rec go d =
        if d = rank then begin
          let o = Grid.offset_of g idx in
          if o < 0 || o >= Grid.length g || Hashtbl.mem seen o then ok := false
          else Hashtbl.add seen o ()
        end
        else
          for i = -halo.(d) to dims.(d) + halo.(d) - 1 do
            idx.(d) <- i;
            go (d + 1)
          done
      in
      go 0;
      !ok)

(* The row decomposition plan binding and [Pde.to_ivp] address through:
   [row_base] of the outer coordinates plus the last-dimension table
   entry of the padded last coordinate. *)
let row_base_matches_offset_of =
  QCheck.Test.make ~name:"row_base agrees with offset_of" ~count:100
    QCheck.small_int (fun seed ->
      let rng, rank, dims, halo, layout = shape_of_seed seed in
      let g = Grid.create ~halo ~layout ~dims () in
      let tab = Grid.last_dim_offsets g in
      let lp = (Grid.left_pad g).(rank - 1) in
      let ok = ref true in
      for _ = 1 to 50 do
        let idx =
          Array.init rank (fun i ->
              Prng.int rng ~bound:(dims.(i) + (2 * halo.(i))) - halo.(i))
        in
        let outer = Array.sub idx 0 (rank - 1) in
        let fast = Grid.row_base g outer + tab.(idx.(rank - 1) + lp) in
        if fast <> Grid.offset_of g idx then ok := false
      done;
      !ok)

let test_fold_alignment () =
  (* The interior origin must start a fold block (YASK halo padding). *)
  let g =
    Grid.create ~halo:[| 1; 1; 1 |] ~layout:(Grid.Folded [| 2; 2; 2 |])
      ~dims:[| 6; 6; 6 |] ()
  in
  Alcotest.(check int) "origin block-aligned" 0
    (Grid.offset_of g [| 0; 0; 0 |] mod 8)

let test_fill_and_iter () =
  let g = Grid.create ~halo:[| 1; 1 |] ~dims:[| 3; 4 |] () in
  Grid.fill g ~f:(fun i -> float_of_int ((i.(0) * 10) + i.(1)));
  Alcotest.(check (float 0.0)) "value" 23.0 (Grid.get g [| 2; 3 |]);
  let count = ref 0 in
  Grid.iter_interior g ~f:(fun _ -> incr count);
  Alcotest.(check int) "iter count" 12 !count

let test_halo_dirichlet () =
  let g = Grid.create ~halo:[| 1; 1 |] ~dims:[| 3; 3 |] () in
  Grid.fill g ~f:(fun _ -> 1.0);
  Grid.halo_dirichlet g 9.0;
  Alcotest.(check (float 0.0)) "halo set" 9.0 (Grid.get g [| -1; 0 |]);
  Alcotest.(check (float 0.0)) "corner halo" 9.0 (Grid.get g [| -1; -1 |]);
  Alcotest.(check (float 0.0)) "interior intact" 1.0 (Grid.get g [| 1; 1 |])

let test_halo_periodic () =
  let g = Grid.create ~halo:[| 1 |] ~dims:[| 4 |] () in
  Grid.fill g ~f:(fun i -> float_of_int i.(0));
  Grid.halo_periodic g;
  Alcotest.(check (float 0.0)) "left wraps" 3.0 (Grid.get g [| -1 |]);
  Alcotest.(check (float 0.0)) "right wraps" 0.0 (Grid.get g [| 4 |]);
  Alcotest.check_raises "halo too wide"
    (Invalid_argument "Grid.halo_periodic: halo wider than interior")
    (fun () ->
      let bad = Grid.create ~halo:[| 3 |] ~dims:[| 2 |] () in
      Grid.halo_periodic bad)

let test_copy_across_layouts () =
  let a = Grid.create ~halo:[| 1; 1; 1 |] ~dims:[| 4; 4; 4 |] () in
  Grid.fill a ~f:(fun i -> float_of_int ((i.(0) * 100) + (i.(1) * 10) + i.(2)));
  let b =
    Grid.create ~halo:[| 1; 1; 1 |] ~layout:(Grid.Folded [| 1; 2; 4 |])
      ~dims:[| 4; 4; 4 |] ()
  in
  Grid.copy_interior ~src:a ~dst:b;
  Alcotest.(check (float 0.0)) "identical" 0.0 (Grid.max_abs_diff a b)

let test_norm () =
  let g = Grid.create ~dims:[| 2; 2 |] () in
  Grid.fill g ~f:(fun _ -> 3.0);
  Alcotest.(check (float 1e-12)) "l2" 6.0 (Grid.l2_norm g)

let test_addresses_disjoint () =
  Grid.reset_address_space ();
  let a = Grid.create ~dims:[| 8; 8 |] () in
  let b = Grid.create ~dims:[| 8; 8 |] () in
  let c = Grid.create ~dims:[| 8; 8 |] () in
  let a_end = Grid.base_address a + Grid.footprint_bytes a in
  let b_end = Grid.base_address b + Grid.footprint_bytes b in
  Alcotest.(check bool) "a/b disjoint" true (Grid.base_address b >= a_end);
  Alcotest.(check bool) "b/c disjoint" true (Grid.base_address c >= b_end);
  Alcotest.(check int) "line aligned" 0 (Grid.base_address b mod 64);
  (* Consecutive allocations are staggered across cache sets (YASK-style
     anti-aliasing padding). *)
  Alcotest.(check bool) "staggered sets" true
    (Grid.base_address a mod 4096 <> Grid.base_address b mod 4096)

let test_accessors () =
  let g =
    Grid.create ~halo:[| 1; 2 |] ~layout:(Grid.Folded [| 2; 2 |])
      ~dims:[| 4; 6 |] ()
  in
  Alcotest.(check int) "rank" 2 (Grid.rank g);
  Alcotest.(check (array int)) "dims" [| 4; 6 |] (Grid.dims g);
  Alcotest.(check (array int)) "halo" [| 1; 2 |] (Grid.halo g);
  Alcotest.(check bool) "layout" true
    (match Grid.layout g with Grid.Folded [| 2; 2 |] -> true | _ -> false);
  Alcotest.(check int) "footprint" (8 * Grid.length g) (Grid.footprint_bytes g);
  Grid.fill_all g 3.5;
  Alcotest.(check (float 0.0)) "fill_all halo" 3.5 (Grid.get g [| -1; -2 |])

let test_flat_access () =
  let g = Grid.create ~dims:[| 4 |] () in
  let off = Grid.offset_of g [| 2 |] in
  Grid.unsafe_set_flat g off 9.0;
  Alcotest.(check (float 0.0)) "flat roundtrip" 9.0 (Grid.unsafe_get_flat g off);
  Alcotest.(check (float 0.0)) "same as get" 9.0 (Grid.get g [| 2 |]);
  Alcotest.(check int) "byte address" (Grid.base_address g + (8 * off))
    (Grid.byte_address g [| 2 |])

(* Every shape the halo walks must handle: ranks 1-3, halos 0..3 (down
   to halo = dims), Linear and Folded layouts, and mixed per-dimension
   halos. *)
let walk_shapes () =
  let rng = Prng.create ~seed:1729 in
  List.concat_map
    (fun rank ->
      List.concat_map
        (fun h ->
          let tight = Array.make rank (max h 1) in
          let loose = Array.init rank (fun _ -> max h 1 + Prng.int rng ~bound:5) in
          let mixed = Array.init rank (fun _ -> Prng.int rng ~bound:4) in
          let fold = Array.init rank (fun _ -> 1 + Prng.int rng ~bound:4) in
          List.concat_map
            (fun layout ->
              [ (Array.make rank h, tight, layout);
                (Array.make rank h, loose, layout);
                (mixed, Array.map (fun m -> max m 1 + 2) mixed, layout) ])
            [ Grid.Linear; Grid.Folded fold ])
        [ 0; 1; 2; 3 ])
    [ 1; 2; 3 ]

let shape_name (halo, dims, layout) =
  let ints a = String.concat "x" (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "dims %s halo %s %s" (ints dims) (ints halo)
    (match layout with Grid.Linear -> "linear" | Grid.Folded f -> "fold " ^ ints f)

(* A grid whose every allocated element (padding included) holds a
   distinct value, so any stray write shows. *)
let numbered (halo, dims, layout) =
  let g = Grid.create ~halo ~layout ~dims () in
  let raw = Grid.raw g in
  for i = 0 to Grid.length g - 1 do
    Bigarray.Array1.set raw i (1000.0 +. float_of_int i)
  done;
  g

let same_bits a b =
  let ra = Grid.raw a and rb = Grid.raw b in
  Grid.length a = Grid.length b
  && (let ok = ref true in
      for i = 0 to Grid.length a - 1 do
        if Int64.bits_of_float (Bigarray.Array1.get ra i)
           <> Int64.bits_of_float (Bigarray.Array1.get rb i)
        then ok := false
      done;
      !ok)

(* The whole-box walk the halo refreshes replaced: every point of the
   total box, through Grid.get/set. *)
let iter_total_box g ~f =
  let dims = Grid.dims g and halo = Grid.halo g in
  let rank = Array.length dims in
  let idx = Array.make rank 0 in
  let rec go d =
    if d = rank then f idx
    else
      for i = -halo.(d) to dims.(d) + halo.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0

let interior g idx =
  let dims = Grid.dims g in
  let ok = ref true in
  Array.iteri (fun i x -> if x < 0 || x >= dims.(i) then ok := false) idx;
  !ok

let test_fill_walk () =
  List.iter
    (fun shape ->
      let name = shape_name shape in
      let g = numbered shape and reference = numbered shape in
      let calls = ref [] in
      let counter = ref 0 in
      Grid.fill g ~f:(fun idx ->
          calls := Array.copy idx :: !calls;
          incr counter;
          (* Stateful: the value depends on the call's position. *)
          (float_of_int !counter *. 0.1) +. float_of_int idx.(0));
      let order = ref [] in
      Grid.iter_interior reference ~f:(fun idx -> order := Array.copy idx :: !order);
      Alcotest.(check (list (array int)))
        (name ^ ": once per point, iter_interior order")
        (List.rev !order) (List.rev !calls);
      let counter = ref 0 in
      Grid.iter_interior reference ~f:(fun idx ->
          incr counter;
          Grid.set reference idx ((float_of_int !counter *. 0.1) +. float_of_int idx.(0)));
      Alcotest.(check bool)
        (name ^ ": bit-identical to Grid.set, halo and padding untouched")
        true (same_bits g reference))
    (walk_shapes ())

(* The interior walks that once went through Grid.get/set per point:
   copy_interior, max_abs_diff, l2_norm and iter_interior_values must
   give the bits the Grid.get walk gives, in the same visiting order,
   across ranks, mixed halos and both layouts — and across a second
   grid of the same dims but another halo and layout. *)
let test_interior_walks () =
  List.iter
    (fun ((halo, dims, layout) as shape) ->
      let name = shape_name shape in
      let rank = Array.length dims in
      let other =
        ( Array.map (fun h -> (h + 1) mod 3) halo,
          dims,
          match layout with
          | Grid.Linear -> Grid.Folded (Array.init rank (fun i -> if i = rank - 1 then 2 else 1))
          | Grid.Folded _ -> Grid.Linear )
      in
      let a = numbered shape and b = numbered other in
      let rng = Prng.create ~seed:(Array.fold_left ( + ) rank dims) in
      Grid.fill b ~f:(fun _ -> Prng.float_range rng ~lo:(-2.0) ~hi:2.0);
      let bits x = Int64.bits_of_float x in
      let worst = ref 0.0 and sum = ref 0.0 and seen = ref [] in
      Grid.iter_interior a ~f:(fun idx ->
          let va = Grid.get a idx in
          seen := (Array.copy idx, va) :: !seen;
          worst := max !worst (abs_float (va -. Grid.get b idx));
          sum := !sum +. (va *. va));
      let got = ref [] in
      Grid.iter_interior_values a ~f:(fun idx v -> got := (Array.copy idx, v) :: !got);
      Alcotest.(check bool)
        (name ^ ": iter_interior_values visits every point in order with its value")
        true
        (List.equal (fun (i, v) (j, w) -> i = j && bits v = bits w) !seen !got);
      Alcotest.(check int64) (name ^ ": max_abs_diff") (bits !worst)
        (bits (Grid.max_abs_diff a b));
      Alcotest.(check int64) (name ^ ": l2_norm") (bits (sqrt !sum))
        (bits (Grid.l2_norm a));
      let reference = numbered other and copied = numbered other in
      Grid.iter_interior a ~f:(fun idx -> Grid.set reference idx (Grid.get a idx));
      Grid.copy_interior ~src:a ~dst:copied;
      Alcotest.(check bool)
        (name ^ ": copy_interior writes the interior only, bit for bit")
        true (same_bits copied reference))
    (walk_shapes ())

let test_halo_dirichlet_walk () =
  List.iter
    (fun shape ->
      let name = shape_name shape in
      let g = numbered shape and reference = numbered shape in
      Grid.halo_dirichlet g (-3.5);
      iter_total_box reference ~f:(fun idx ->
          if not (interior reference idx) then Grid.set reference idx (-3.5));
      Alcotest.(check bool)
        (name ^ ": exactly the non-interior cells set")
        true (same_bits g reference))
    (walk_shapes ())

let test_halo_periodic_walk () =
  List.iter
    (fun shape ->
      let name = shape_name shape in
      let g = numbered shape and reference = numbered shape in
      Grid.halo_periodic g;
      let dims = Grid.dims reference in
      let wrapped = Array.make (Array.length dims) 0 in
      iter_total_box reference ~f:(fun idx ->
          if not (interior reference idx) then begin
            Array.iteri
              (fun i x -> wrapped.(i) <- ((x mod dims.(i)) + dims.(i)) mod dims.(i))
              idx;
            Grid.set reference idx (Grid.get reference wrapped)
          end);
      Alcotest.(check bool)
        (name ^ ": bit-identical to the whole-box walk")
        true (same_bits g reference))
    (walk_shapes ())

let suite =
  [ Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "get/set roundtrip" `Quick test_get_set_roundtrip;
    qt offsets_bijective;
    qt row_base_matches_offset_of;
    Alcotest.test_case "fold alignment" `Quick test_fold_alignment;
    Alcotest.test_case "fill and iter" `Quick test_fill_and_iter;
    Alcotest.test_case "halo dirichlet" `Quick test_halo_dirichlet;
    Alcotest.test_case "halo periodic" `Quick test_halo_periodic;
    Alcotest.test_case "fill walks rows" `Quick test_fill_walk;
    Alcotest.test_case "interior copies and reductions walk rows" `Quick
      test_interior_walks;
    Alcotest.test_case "halo dirichlet walks halo only" `Quick
      test_halo_dirichlet_walk;
    Alcotest.test_case "halo periodic walks halo only" `Quick
      test_halo_periodic_walk;
    Alcotest.test_case "copy across layouts" `Quick test_copy_across_layouts;
    Alcotest.test_case "l2 norm" `Quick test_norm;
    Alcotest.test_case "addresses disjoint" `Quick test_addresses_disjoint;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "flat access" `Quick test_flat_access ]

(* Offsite integration: rank the implementation variants of RK4 applied
   to a 2D heat equation with the ECM model, validate the ranking on the
   simulated machine, then actually solve the PDE with the selected
   variant and check the numerical error.

   Run with: dune exec examples/ode_offsite.exe *)
open Yasksite
module Table = Yasksite_util.Table
module Pde = Ode.Pde
module Tableau = Ode.Tableau

let () =
  let machine = Machine.scaled ~factor:8 Machine.cascade_lake in
  let pde = Pde.heat ~rank:2 ~n:384 ~alpha:1.0 in
  let tab = Tableau.rk4 in
  (* Step size from the diffusion stability limit (lambda_max ~ 4 d
     alpha / dx^2, RK4 stability interval ~2.78). *)
  let dx = pde.Pde.dx in
  let h = 0.5 *. dx *. dx /. (4.0 *. 1.0 *. 2.0) in

  (* 1. Enumerate and score variants: prediction vs measurement. *)
  let candidates = Offsite.evaluate machine pde tab ~h ~threads:4 in
  let tbl =
    Table.create ~title:"RK4 on heat-2d (384x384, memory-bound), 4 threads"
      ~columns:
        [ ("variant", Table.Left); ("tuned", Table.Left);
          ("sweeps/step", Table.Right); ("pred us/step", Table.Right);
          ("meas us/step", Table.Right) ]
      ()
  in
  List.iter
    (fun (c : Offsite.candidate) ->
      Table.add_row tbl
        [ (match c.Offsite.variant.Offsite.Variant.scheme with
          | `Unfused -> "unfused"
          | `Fused -> "fused"
          | `Mixed _ -> "mixed");
          (if c.Offsite.tuned then "yes" else "no");
          string_of_int (Offsite.Variant.sweeps_per_step c.Offsite.variant);
          Table.cell_f (1e6 *. c.Offsite.predicted_step_seconds);
          Table.cell_f (1e6 *. Option.get c.Offsite.measured_step_seconds) ])
    candidates;
  Table.print tbl;
  let q = Offsite.quality candidates in
  Printf.printf
    "ranking quality: kendall tau %.2f, top-1 %s, selected speedup %.2fx\n\n"
    q.Offsite.kendall
    (if q.Offsite.top1 then "correct" else "wrong")
    q.Offsite.speedup_selected;

  (* 2. Solve the PDE with the predicted-best variant and verify the
     numerics against the analytic solution. *)
  let selected = List.hd candidates in
  let ex = Offsite.Executor.create pde selected.Offsite.variant in
  let steps = 200 in
  Offsite.Executor.run ex ~steps;
  let t_final = h *. float_of_int steps in
  let err =
    Pde.grid_error_vs_exact pde ~tm:t_final (Offsite.Executor.state ex)
  in
  Printf.printf
    "solved heat-2d for %d steps with %s: max error vs analytic solution = %.2e\n"
    steps selected.Offsite.variant.Offsite.Variant.name err

(* Independent reference evaluator for the engine's bit-identity
   properties: a direct walk of the expression tree over [Grid.get],
   sharing no code with lowering, binding or code generation.

   Every operation is the one the tree names, applied in tree order, so
   the plan IR's exact rewrites (constant folding, FMA-chain detection,
   postfix flattening) must reproduce it to the bit. [Select] evaluates
   both arms before the condition, as the branchless backends do. *)

module Grid = Yasksite_grid.Grid
module Expr = Yasksite_stencil.Expr
module Spec = Yasksite_stencil.Spec
module Program = Yasksite_stencil.Program

exception Unresolved of string

(* [read field offsets] supplies the value of an access. *)
let rec eval read (e : Expr.t) =
  match e with
  | Const c -> c
  | Coeff n -> raise (Unresolved n)
  | Ref { field; offsets } -> read field offsets
  | Neg a -> -.eval read a
  | Add (a, b) -> eval read a +. eval read b
  | Sub (a, b) -> eval read a -. eval read b
  | Mul (a, b) -> eval read a *. eval read b
  | Div (a, b) -> eval read a /. eval read b
  | Min (a, b) -> Float.min (eval read a) (eval read b)
  | Max (a, b) -> Float.max (eval read a) (eval read b)
  | Select (c, a, b) ->
      let va = eval read a and vb = eval read b in
      if eval read c > 0.0 then va else vb

let shift idx offsets = Array.mapi (fun i d -> idx.(i) + d) offsets

(* The value of [spec] at interior point [idx]. *)
let point (spec : Spec.t) ~inputs idx =
  eval (fun f off -> Grid.get inputs.(f) (shift idx off)) spec.Spec.expr

(* One sweep over the interior of [output]. *)
let sweep (spec : Spec.t) ~inputs ~output =
  Grid.iter_interior output ~f:(fun idx ->
      Grid.set output idx (point spec ~inputs idx))

(* [steps] ping-pong sweeps from [a] (halos untouched), returning the
   grid that holds the final state: what a temporal wavefront over the
   same pair must reproduce. *)
let steps spec ~a ~b ~steps =
  let grids = [| a; b |] in
  for t = 0 to steps - 1 do
    sweep spec ~inputs:[| grids.(t mod 2) |] ~output:grids.((t + 1) mod 2)
  done;
  grids.(steps mod 2)

(* Field [name] of a stencil program at [idx], recomputing every
   intermediate stage on demand from the named input grids: no
   materialization, no fusion, no halo plan. *)
let rec field (p : Program.t) ~inputs name idx =
  match Program.find_stage p name with
  | None -> Grid.get (List.assoc name inputs) idx
  | Some st ->
      eval
        (fun f off -> field p ~inputs st.Program.reads.(f) (shift idx off))
        st.Program.expr

(* offsite-heat2d: the paper's headline path. One op is a full Offsite
   question — which explicit method, in which implementation variant,
   integrates heat-2d on a 128x128 grid to t_end within tol for the
   least predicted time — followed by a production run of the chosen
   method and variant on a 1024x1024 grid (state far beyond L2) at that
   grid's stability-limited step. The process-wide backend is codegen,
   so this is the workload that runs ode, offsite, cachesim (through
   Measure inside the variant scoring) and the native kernel cache.

   Set-up ends with one untimed warm-up op against an empty store, so
   kernel compiles land in set-up. Each timed op then starts from a
   cleared in-memory model cache over the warm store, as a second
   invocation of the CLI would. *)

open Yasksite
module Pde = Ode.Pde
module Tableau = Ode.Tableau
module Variant = Offsite.Variant
module Executor = Offsite.Executor
module Prng = Yasksite_util.Prng

let machine = Machine.scaled ~factor:8 Machine.cascade_lake
let n_decide = 128
let n_prod = 1024
let prod_steps = 20
let methods = [ Tableau.heun2; Tableau.rk4 ]
let threads = 1
let tol = 1e-10

(* alpha comes from the seed; t_end = alpha_t_end / alpha keeps the step
   counts, and so the work of every op, independent of the seed. *)
let alpha_t_end = 2.5e-4

type inputs = { alpha : float; t_end : float; decide_pde : Pde.t; prod_pde : Pde.t }

let inputs ~seed =
  let rng = Prng.create ~seed in
  let alpha = Prng.float_range rng ~lo:0.5 ~hi:2.0 in
  { alpha;
    t_end = alpha_t_end /. alpha;
    decide_pde = Pde.heat ~rank:2 ~n:n_decide ~alpha;
    prod_pde = Pde.heat ~rank:2 ~n:n_prod ~alpha }

(* Stability-limited step on the production grid from the largest
   eigenvalue of the 5-point Laplacian, 8 alpha / dx^2 (an upper bound,
   so the step is safe). *)
let prod_h inp (tab : Tableau.t) =
  let dx = inp.prod_pde.Pde.dx in
  0.9 *. Tableau.real_stability_interval tab /. (8.0 *. inp.alpha /. (dx *. dx))

(* The initial condition is the lowest sine mode, an exact eigenvector
   of the discrete Laplacian; the semi-discrete solution decays with
   the discrete eigenvalue, the analytic one with 2 pi^2. Twice their
   gap plus a round-off allowance bounds the production state's error
   (time-stepping error of this smooth mode is far below it). *)
let solve_bound inp ~tm =
  let dx = inp.prod_pde.Pde.dx in
  let pi = Float.pi in
  let lam_h = 8.0 /. (dx *. dx) *. (sin (pi *. dx /. 2.0) ** 2.0) in
  let gap = abs_float (exp (-.lam_h *. inp.alpha *. tm) -. exp (-2.0 *. pi *. pi *. inp.alpha *. tm)) in
  (2.0 *. gap) +. 1e-12

let variant_for inp (c : Offsite.accuracy_choice) =
  let tab = c.Offsite.tableau_a in
  let h = prod_h inp tab in
  let v =
    match c.Offsite.candidate_a.Offsite.variant.Variant.scheme with
    | `Unfused -> Variant.unfused tab inp.prod_pde ~h
    | `Fused -> Variant.fused tab inp.prod_pde ~h
    | `Mixed mask -> Variant.with_mask tab inp.prod_pde ~h ~mask
  in
  (v, h)

type op_result = {
  choices : Offsite.accuracy_choice list;
  decide_s : Bench.sample;
  create_s : Bench.sample;
  steps_s : Bench.sample list;
  solve_err : float;
  ok : bool;
}

(* One op: decide, then integrate the choice on the production grid and
   check both halves. The decision and the production run are each
   bracketed by host probes (see Bench). *)
let op inp =
  Model_cache.clear Model_cache.shared;
  let q0 = Bench.host_probe () in
  let choices, decide_s =
    Bench.time (fun () ->
        Trace.span "offsite.rank_methods_at_accuracy" (fun () ->
            Offsite.rank_methods_at_accuracy machine inp.decide_pde methods
              ~t_end:inp.t_end ~tol ~threads))
  in
  let chosen = List.hd choices in
  let v, h = variant_for inp chosen in
  let q1 = Bench.host_probe () in
  let ex, create_s =
    Bench.time (fun () ->
        Trace.span "offsite.executor_create" (fun () -> Executor.create inp.prod_pde v))
  in
  let steps_s =
    List.init prod_steps (fun _ ->
        snd (Bench.time (fun () -> Trace.span "offsite.executor_step" (fun () -> Executor.step ex))))
  in
  let q2 = Bench.host_probe () in
  let decide_s = Bench.scaled_by ~before:q0 ~after:q1 decide_s in
  let create_s = Bench.scaled_by ~before:q1 ~after:q1 create_s in
  let steps_s = List.map (Bench.scaled_by ~before:q1 ~after:q2) steps_s in
  let tm = h *. float_of_int (Executor.steps_done ex) in
  let solve_err = Pde.grid_error_vs_exact inp.prod_pde ~tm (Executor.state ex) in
  let ok =
    chosen.Offsite.achieved_error <= tol
    && Executor.steps_done ex = prod_steps
    && solve_err <= solve_bound inp ~tm
  in
  if not ok then
    Printf.eprintf "offsite-heat2d: check failed (decision error %g, tol %g; solve error %g, bound %g)\n%!"
      chosen.Offsite.achieved_error tol solve_err (solve_bound inp ~tm);
  { choices; decide_s; create_s; steps_s; solve_err; ok }

type state = { inp : inputs; store : Store.t; store_dir : string; warmup : op_result }

let setup ~seed () =
  let store_dir = Bench.scratch_dir "offsite-store" in
  let store = Store.open_root store_dir in
  (* A fresh process: no kernel memo, toolchain re-probed, empty store. *)
  Engine.Native.reset_for_tests ();
  Engine.Cert.clear ();
  Engine.Native.set_store (Some store);
  Engine.Cert.set_store (Some store);
  Model_cache.clear Model_cache.shared;
  Model_cache.attach_store Model_cache.shared store;
  Engine.Sweep.set_default_backend Engine.Sweep.Codegen_backend;
  let inp = inputs ~seed in
  let warmup = op inp in
  if not warmup.ok then failwith "offsite-heat2d: warm-up op failed its check";
  { inp; store; store_dir; warmup }

(* ---- replays for the traced run and the simulated-machine metrics ----- *)

(* Re-score every candidate the decision scored (Variant.all x
   {naive, tuned} per method, at the step the method settled on) on the
   same cache, and replay each kernel's cachesim measurement. *)
let replay inp choices ~measures =
  let scored =
    List.map
      (fun (c : Offsite.accuracy_choice) ->
        Trace.span "offsite.evaluate" (fun () ->
            Offsite.evaluate machine inp.decide_pde c.Offsite.tableau_a ~h:c.Offsite.h_used ~threads))
      choices
  in
  let candidates = List.concat scored in
  let measures =
    if not measures then []
    else
    List.concat_map
      (fun (cand : Offsite.candidate) ->
        List.map
          (fun (k : Variant.kernel) ->
            let config = List.assoc k.Variant.label cand.Offsite.configs in
            Trace.span "cachesim.measure" (fun () ->
                Engine.Measure.stencil_sweep machine k.Variant.spec ~dims:inp.decide_pde.Pde.dims
                  ~config))
          cand.Offsite.variant.Variant.kernels)
      candidates
  in
  (candidates, measures)

(* Configs the schedule-legality filter rejects per tuned kernel of the
   decision (best_static_config ranks each distinct kernel once, with
   Lint.Schedule.legal pruning the advisor's space). *)
let schedule_pruned inp candidates =
  let dims = inp.decide_pde.Pde.dims in
  let specs =
    List.concat_map
      (fun (c : Offsite.candidate) ->
        List.map (fun (k : Variant.kernel) -> k.Variant.spec) c.Offsite.variant.Variant.kernels)
      candidates
    |> List.sort_uniq (fun a b -> compare (Stencil.Lower.fingerprint a) (Stencil.Lower.fingerprint b))
  in
  let pruned =
    List.map
      (fun spec ->
        let info = Stencil.Analysis.of_spec spec in
        let space = Advisor.space machine ~dims ~threads ~rank:2 in
        List.length space - List.length (List.filter (Lint.Schedule.legal info ~dims) space))
      specs
  in
  float_of_int (List.fold_left ( + ) 0 pruned) /. float_of_int (max 1 (List.length specs))

(* Right-hand-side evaluations of one decision: 30 power iterations, the
   DOPRI5 reference, and every doubling attempt of every method. *)
let rhs_evals inp choices =
  let rho = Offsite.spectral_radius inp.decide_pde in
  let min_interval =
    List.fold_left (fun acc t -> Float.min acc (Tableau.real_stability_interval t)) infinity methods
  in
  let max_stability_steps = int_of_float (ceil (inp.t_end *. rho /. (0.9 *. min_interval))) in
  let ref_steps = 4 * max max_stability_steps 16 in
  let search =
    List.fold_left
      (fun acc (c : Offsite.accuracy_choice) ->
        let tab = c.Offsite.tableau_a in
        let h_stable = 0.9 *. Tableau.real_stability_interval tab /. rho in
        let first = max 1 (int_of_float (ceil (inp.t_end /. h_stable))) in
        let rec attempts s acc = if s > c.Offsite.steps then acc else attempts (2 * s) (acc + s) in
        acc + (tab.Tableau.s * attempts first 0))
      0 choices
  in
  (30 + (ref_steps * Tableau.dopri5.Tableau.s) + search, ref_steps)

(* ---- the run -------------------------------------------------------- *)

let run ~seed ~seconds =
  let st, setups =
    Bench.repeated_setup ~discard:(fun st -> Bench.remove_tree st.store_dir) (setup ~seed)
  in
  let inp = st.inp in
  let native0 = Engine.Native.stats () in
  let store0 = Store.stats st.store in
  let results = ref [] in
  let model_stats = ref [] in
  let loop =
    Bench.closed_loop ~seconds (fun _ ->
        let r = op inp in
        model_stats := Model_cache.stats Model_cache.shared :: !model_stats;
        results := r :: !results;
        r.ok)
  in
  let native1 = Engine.Native.stats () in
  let store1 = Store.stats st.store in
  let results = List.rev !results in
  let steps = List.concat_map (fun r -> r.steps_s) results in
  let decide = List.map (fun r -> r.decide_s) results in
  let tts = List.map (fun r -> Bench.total ((r.decide_s :: r.create_s :: r.steps_s))) results in
  let step_p50 = Bench.median (Bench.scaleds steps) in
  let choices = st.warmup.choices in
  let chosen = List.hd choices in
  (* Simulated-machine quality of the decision: deterministic, computed
     outside the timed loop on every run. *)
  Model_cache.clear Model_cache.shared;
  let (candidates, measures), replay_s =
    Bench.time (fun () -> Trace.span "probe.replay" (fun () -> replay inp choices ~measures:!Trace.enabled))
  in
  let q = Offsite.quality candidates in
  let e2e =
    [ Bench.m "setup_s" "s" (Bench.median (Bench.scaleds setups));
      Bench.m "op_ms_p50" "ms" (1e3 *. step_p50);
      Bench.m "time_to_solution_s" "s" (Bench.median (Bench.scaleds tts));
      Bench.m "rss_peak_mb" "MiB" (Bench.rss_peak_mb ()) ]
  in
  let layers, layer_notes =
    if not !Trace.enabled then ([], [])
    else begin
      let ivp = Pde.to_ivp inp.decide_pde ~t_end:inp.t_end in
      let dydt = Array.make ivp.Ode.Ivp.dim 0.0 in
      let rhs_s =
        Trace.span "probe.rhs" (fun () ->
            List.init 20 (fun _ ->
                snd
                  (Bench.time (fun () ->
                       Trace.span "ode.rhs" (fun () ->
                           ivp.Ode.Ivp.rhs ~tm:0.0 ~y:ivp.Ode.Ivp.y0 ~dydt)))))
      in
      let evals, ref_steps = rhs_evals inp choices in
      let _, reference_s =
        Bench.time (fun () ->
            Trace.span "ode.reference" (fun () ->
                Ode.Rk.integrate Tableau.dopri5 ivp ~steps:ref_steps))
      in
      let cs = List.hd !model_stats in
      let ops = float_of_int (max 1 loop.Bench.ops) in
      let per_op f = float_of_int (f store1 - f store0) /. ops in
      let span_ms ?in_ops name = 1e3 *. Bench.median (Trace.durations ?in_ops name) in
      let first_step = 1e3 *. (List.hd st.warmup.steps_s).Bench.host in
      let measured =
        [ ("lint.schedule_pruned", schedule_pruned inp candidates);
          ("ecm.model_evals", float_of_int (cs.Model_cache.misses - cs.Model_cache.store_hits));
          ("ecm.cache_hit_rate", Bench.hit_rate cs);
          ("store.writes", per_op (fun s -> s.Store.writes));
          ("store.hits", per_op (fun s -> s.Store.hits));
          ("store.misses", per_op (fun s -> s.Store.misses));
          ("store.write_errors", per_op (fun s -> s.Store.write_errors));
          ("store.quarantined", per_op (fun s -> s.Store.quarantined));
          ("store.bytes", float_of_int (Store.usage st.store).Store.bytes) ]
        @ Bench.native_delta Bench.native_zero native0 ~prefix:"native.setup."
        @ Bench.native_delta native0 native1 ~prefix:"native.op."
        @ [ ("native.resolve_ms", first_step -. (1e3 *. Bench.median (Bench.hosts steps)));
            ("cachesim.measures", float_of_int (List.length measures));
            ( "cachesim.sim_points",
              float_of_int
                (List.fold_left (fun a (mm : Engine.Measure.t) -> a + mm.Engine.Measure.sim_points) 0 measures) );
            ("cachesim.measure_ms", 1e3 *. List.fold_left ( +. ) 0.0 (Trace.durations "cachesim.measure"));
            ("ode.rhs_evals", float_of_int evals);
            ("ode.rhs_ms", 1e3 *. Bench.median rhs_s);
            ("ode.reference_ms", 1e3 *. reference_s);
            ("offsite.evaluate_ms", 1e3 *. List.fold_left ( +. ) 0.0 (Trace.durations "offsite.evaluate"));
            ("offsite.candidates", float_of_int (List.length candidates));
            ("offsite.create_ms", span_ms ~in_ops:true "offsite.executor_create");
            ("offsite.step_ms", span_ms ~in_ops:true "offsite.executor_step");
            ("offsite.solve_err", List.fold_left (fun a r -> Float.max a r.solve_err) 0.0 results);
            ("gc.minor_mb", loop.Bench.minor_mb);
            ("gc.major_collections", loop.Bench.major_collections);
            ( "trace.overhead_pct",
              Bench.overhead_pct loop ) ]
      in
      let metrics, bypassed = Bench.layer_metrics measured in
      ( metrics,
        [ ("bypassed_layers", Json.List bypassed);
          ( "layer_notes",
            Json.String
              "stencil parse/fuse, program lint, fusion ranking and Prog do not run here and \
               read 0. lint.schedule_pruned: configs Lint.Schedule.legal rejects per distinct \
               tuned kernel of the decision. \
               native.setup.* are the counters after the last set-up (which starts from a \
               reset kernel cache); native.op.* their deltas over the timed ops. store.* are \
               per-op deltas. cachesim.* and offsite.evaluate_ms replay the decision's \
               variant scoring from outside (Measure runs inside Offsite.score and cannot \
               be wrapped); ode.rhs_evals is computed from the returned step counts and \
               tableau stages; ode.reference_ms re-runs the DOPRI5 reference. \
               native.resolve_ms is the warm-up's first production step minus the \
               steady step median." ) ] )
    end
  in
  let scheme =
    match chosen.Offsite.candidate_a.Offsite.variant.Variant.scheme with
    | `Unfused -> "unfused"
    | `Fused -> "fused"
    | `Mixed _ -> "mixed"
  in
  let detail =
    [ ( "report",
        Json.List
          [ Bench.p50_row "setup_s" "s" setups;
            Bench.row ~clock:"host, probe-scaled" ~n:(List.length steps) "mlups" "MLUP/s"
              (Some (float_of_int (n_prod * n_prod) /. step_p50 /. 1e6))
              ~host:(float_of_int (n_prod * n_prod) /. Bench.median (Bench.hosts steps) /. 1e6)
              ~note:"state points per solve step / op_ms_p50";
            Bench.p50_row ~scale:1e3 "op_ms_p50" "ms" steps;
            Bench.p90_row ~scale:1e3 "op_ms_p90" "ms" steps;
            Bench.p50_row "decide_s" "s" decide;
            Bench.p50_row "time_to_solution_s" "s" tts;
            Bench.row ~clock:"simulated" ~n:(List.length candidates) "pred_err_pct" "%"
              (Some (100.0 *. q.Offsite.mean_abs_error));
            Bench.row ~clock:"simulated" ~n:(List.length candidates) "rank_tau" "tau"
              (Some q.Offsite.kendall);
            Bench.row ~n:1 "rss_peak_mb" "MiB" (Some (Bench.rss_peak_mb ())) ] );
      ("decide_s", Bench.summary decide);
      ("time_to_solution_s", Bench.summary tts);
      ("op_ms", Bench.summary ~scale:1e3 steps);
      ("probe_ms", Bench.quartiles ~scale:1e3 (Array.to_list loop.Bench.probes));
      ( "simulated_machine",
        Json.String
          "pred_err_pct and rank_tau compare ECM-predicted with cachesim-measured per-step \
           time (simulated-machine time) over the decision's candidates; every other \
           timing is host wall clock" );
      ("replay_s", Json.Float replay_s);
      ("setup_s", Bench.summary setups);
      ("chosen", Json.String (chosen.Offsite.tableau_a.Tableau.name ^ "/" ^ scheme));
      ("decision_steps", Json.Int chosen.Offsite.steps);
      ("decision_error", Json.Float chosen.Offsite.achieved_error);
      ("tol", Json.Float tol);
      ("alpha", Json.Float inp.alpha);
      ("t_end", Json.Float inp.t_end);
      ("solve_err_max", Json.Float (List.fold_left (fun a r -> Float.max a r.solve_err) 0.0 results));
      ( "solve_bound",
        Json.String
          "2 x |exp(-lambda_h alpha t) - exp(-2 pi^2 alpha t)| + 1e-12 (semi-discrete gap \
           of the sine mode)" ) ]
    @ layer_notes
  in
  let sizes =
    [ ("decide_grid", Json.String "128x128");
      ("prod_grid", Json.String "1024x1024");
      ("prod_state_mib", Json.Float (float_of_int (8 * n_prod * n_prod) /. 1048576.0)) ]
  in
  Bench.remove_tree st.store_dir;
  ( { Bench.attempted = loop.Bench.ops; failed = loop.Bench.op_failures; e2e; layers; detail },
    Bench.provenance ~workload:"offsite-heat2d" ~seed ~backend:"codegen" ~pool_domains:1 ~sizes )

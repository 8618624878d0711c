(* hdiff-auto: one application of the 16-stage horizontal-diffusion
   program at 1024x1024 under --fuse auto, the way the CLI's
   [program run --fuse auto] runs it: ECM-ranked partition for the
   default clx/8 machine, default plan backend, a spatially blocked
   config (an unblocked one would sweep sequentially and leave the pool
   idle) on a pool of nproc domains. The engine does almost all the
   work; ecm and stencil almost none. *)

open Yasksite
module P = Stencil.Program
module Pool = Yasksite_util.Pool
module Prng = Yasksite_util.Prng

let dims = [| 1024; 1024 |]
let config = Config.v ~block:[| 0; 128 |] ()
let machine = Machine.scaled ~factor:8 Machine.cascade_lake
let samples_per_field = 32

(* ---- independent oracle -------------------------------------------- *)

(* Recursive point evaluator over the unfused stage DAG, reading inputs
   with [Grid.get]. It shares no code with the engine or the stencil
   compilers, so it stays valid whatever backend those grow or lose.
   Each node evaluates the same IEEE operations in the same tree shape
   as the stage expression, so outputs must match bit for bit. *)
let rec eval_expr p inputs (s : P.stage) idx (e : Stencil.Expr.t) =
  let ev = eval_expr p inputs s idx in
  match e with
  | Const c -> c
  | Coeff n -> failwith ("oracle: unresolved coefficient " ^ n)
  | Ref { field; offsets } ->
      value p inputs s.P.reads.(field) (Array.map2 ( + ) idx offsets)
  | Neg a -> -.ev a
  | Add (a, b) -> ev a +. ev b
  | Sub (a, b) -> ev a -. ev b
  | Mul (a, b) -> ev a *. ev b
  | Div (a, b) -> ev a /. ev b
  | Min (a, b) -> Float.min (ev a) (ev b)
  | Max (a, b) -> Float.max (ev a) (ev b)
  | Select (c, a, b) ->
      let c = ev c and a = ev a and b = ev b in
      if c > 0.0 then a else b

and value p inputs field idx =
  match List.assoc_opt field inputs with
  | Some g -> Grid.get g idx
  | None -> (
      match P.find_stage p field with
      | Some s -> eval_expr p inputs s idx s.P.expr
      | None -> failwith ("oracle: unknown field " ^ field))

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* A seeded sample of output points per field, plus the four corners
   (where halo reads happen), must be bit-identical to the oracle. *)
let check ~seed ~op prog inputs (r : Engine.Prog.result) =
  let rng = Prng.create_indexed ~seed:(seed + 7919) ~index:(op + 1) in
  let corners =
    [ [| 0; 0 |];
      [| 0; dims.(1) - 1 |];
      [| dims.(0) - 1; 0 |];
      [| dims.(0) - 1; dims.(1) - 1 |] ]
  in
  List.for_all
    (fun (name, g) ->
      let pts =
        corners
        @ List.init samples_per_field (fun _ ->
              [| Prng.int rng ~bound:dims.(0); Prng.int rng ~bound:dims.(1) |])
      in
      List.for_all (fun idx -> same (value prog inputs name idx) (Grid.get g idx)) pts)
    r.Engine.Prog.outputs

(* ---- the pipeline --------------------------------------------------- *)

type state = {
  prog : P.t;
  fused : P.t;
  part : Advisor.partition;
  space : Grid.space;
  inputs : (string * Grid.t) list;
  pool : Pool.t;
}

(* Inputs are sized by the fully materialized halo plan, which every
   partition's plan fits inside. *)
let make_inputs ~seed space p =
  List.mapi
    (fun i (name, halo) ->
      let rng = Prng.create_indexed ~seed ~index:i in
      let g = Grid.create ~space ~halo ~dims () in
      Grid.fill g ~f:(fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0);
      Grid.halo_dirichlet g 0.0;
      (name, g))
    (P.halo_plan p).P.input_halo

(* The --fuse auto decision: rank on a fresh model cache, then fuse. *)
let decide p =
  let cache = Model_cache.create () in
  let part =
    Trace.span "ecm.best_partition" (fun () ->
        Advisor.best_partition ~cache machine p ~dims ~config)
  in
  let fused =
    Trace.span "stencil.fuse" (fun () -> P.fuse p ~inline:part.Advisor.inline)
  in
  (part, fused, Model_cache.stats cache)

let apply ?pool st p =
  Trace.span "engine.prog_run" (fun () ->
      Engine.Prog.run ?pool ~config ~space:st.space p ~inputs:st.inputs)

let setup ~seed ~domains () =
  let prog =
    Trace.span "stencil.parse" (fun () ->
        match P.parse Stencil.Suite.hdiff_text with
        | Ok p -> p
        | Error (line, msg) -> failwith (Printf.sprintf "hdiff line %d: %s" line msg))
  in
  Trace.span "lint.program" (fun () ->
      Lint.gate ~context:"hdiff-auto" (Lint.Program.program prog));
  let part, fused, _ = decide prog in
  let space = Grid.fresh_space () in
  let inputs = Trace.span "grid.fill" (fun () -> make_inputs ~seed space prog) in
  let pool = Pool.create ~domains () in
  let st = { prog; fused; part; space; inputs; pool } in
  let r = apply ~pool st fused in
  if not (check ~seed ~op:(-1) prog inputs r) then
    failwith "hdiff-auto: warm-up output differs from the oracle";
  st

(* ---- computed sizes -------------------------------------------------- *)

let mib bytes = float_of_int bytes /. 1048576.0

let box ext = Array.fold_left ( * ) 1 (Array.mapi (fun d e -> dims.(d) + (2 * e)) ext)

(* Stage grids one Prog.run allocates (one per non-input field), from
   the halo plan. *)
let stage_bytes p =
  List.fold_left (fun acc (_, ext) -> acc + (8 * box ext)) 0 (P.halo_plan p).P.stage_ext

let input_bytes p =
  List.fold_left (fun acc (_, h) -> acc + (8 * box h)) 0 (P.halo_plan p).P.input_halo

(* ∏ 2^k over connected components, k = inlinable stages in each. *)
let partitions p =
  let inl = P.inlinable p in
  List.fold_left
    (fun acc comp ->
      acc *. (2.0 ** float_of_int (List.length (List.filter (fun s -> List.mem s inl) comp))))
    1.0 (P.components p)

let computed_work fused stages =
  List.fold_left
    (fun (flops, bytes) (sr : Engine.Prog.stage_run) ->
      match P.find_stage fused sr.Engine.Prog.stage with
      | None -> (flops, bytes)
      | Some s ->
          let a = Stencil.Analysis.of_spec (P.stage_spec fused s) in
          let pts = float_of_int sr.Engine.Prog.stats.Engine.Sweep.points in
          ( flops +. (float_of_int a.Stencil.Analysis.flops *. pts),
            bytes +. (Stencil.Analysis.min_code_balance a *. pts) ))
    (0.0, 0.0) stages

(* ---- the run -------------------------------------------------------- *)

let run ~seed ~seconds =
  let domains = Pool.default_domains () in
  let st, setups =
    Bench.repeated_setup
      ~discard:(fun st -> Pool.shutdown st.pool)
      (setup ~seed ~domains)
  in
  let timings = ref [] and decide_stats = ref [] in
  let last = ref None in
  let loop =
    Bench.closed_loop ~pool:st.pool ~seconds (fun op ->
        let (_, fused, cs), t_decide = Bench.time (fun () -> decide st.prog) in
        let r, t_run = Bench.time (fun () -> apply ~pool:st.pool st fused) in
        timings := (op, t_run, t_decide +. t_run) :: !timings;
        decide_stats := cs :: !decide_stats;
        last := Some r.Engine.Prog.stages;
        Trace.span "check" (fun () -> check ~seed ~op st.prog st.inputs r))
  in
  let timings = List.rev !timings in
  let run_s = List.map (fun (op, t, _) -> Bench.in_op loop op t) timings in
  let tts_s = List.map (fun (op, _, t) -> Bench.in_op loop op t) timings in
  let outputs = Array.length st.prog.P.outputs in
  let points = float_of_int (dims.(0) * dims.(1) * outputs) in
  let op_p50 = Bench.median (Bench.scaleds run_s) in
  let e2e =
    [ Bench.m "setup_s" "s" (Bench.median (Bench.scaleds setups));
      Bench.m "op_ms_p50" "ms" (1e3 *. op_p50);
      Bench.m "time_to_solution_s" "s" (Bench.median (Bench.scaleds tts_s));
      Bench.m "rss_peak_mb" "MiB" (Bench.rss_peak_mb ()) ]
  in
  let layers, layer_notes =
    if not !Trace.enabled then ([], [])
    else begin
      (* Probes after the timed loop: the fully materialized partition
         and the sequential (pool-less) run of the ranked one. *)
      let scaled_runs name f =
        Trace.span name (fun () ->
            List.init 3 (fun _ -> (snd (Bench.time_scaled ~pool:st.pool f)).Bench.scaled))
      in
      let none_s = scaled_runs "probe.unfused" (fun () -> apply ~pool:st.pool st st.prog) in
      let seq_s = scaled_runs "probe.sequential" (fun () -> apply st st.fused) in
      let stages = Option.get !last in
      let total =
        List.fold_left
          (fun acc (sr : Engine.Prog.stage_run) -> Engine.Sweep.add_stats acc sr.Engine.Prog.stats)
          Engine.Sweep.zero_stats stages
      in
      let flops, bytes = computed_work st.fused stages in
      let cs = List.hd !decide_stats in
      let ms name = 1e3 *. Bench.median (Trace.durations name) in
      let measured =
        [ ("stencil.parse_ms", ms "stencil.parse");
          ("stencil.fuse_ms", ms "stencil.fuse");
          ("stencil.stages_after_fuse", float_of_int (Array.length st.fused.P.stages));
          ("lint.program_ms", ms "lint.program");
          ("ecm.model_evals", float_of_int cs.Model_cache.misses);
          ("ecm.cache_hit_rate", Bench.hit_rate cs);
          ("ecm.partitions", partitions st.prog);
          ("ecm.best_partition_ms", ms "ecm.best_partition");
          ("engine.prog_ms", 1e3 *. Bench.median (Trace.durations ~in_ops:true "engine.prog_run"));
          ("engine.points", float_of_int total.Engine.Sweep.points);
          ("engine.vec_units", float_of_int total.Engine.Sweep.vec_units);
          ("engine.rows", float_of_int total.Engine.Sweep.rows);
          ("engine.blocks", float_of_int total.Engine.Sweep.blocks);
          ("engine.flops", flops);
          ("engine.bytes_computed", bytes);
          ("engine.intermediate_mb", mib (stage_bytes st.fused));
          ("engine.auto_over_none", op_p50 /. Bench.median none_s);
          ("engine.pool_speedup", Bench.median seq_s /. op_p50);
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
              "no store, no tuning request, plan backend (no native kernels), no \
               cachesim and no ODE on this workload: those layers read 0. \
               engine.* counts are per application; flops and bytes_computed \
               are computed from Analysis x points (bytes: compulsory traffic, \
               not measured). gc.* are main-domain counters per op." ) ] )
    end
  in
  let detail =
    [ ( "report",
        Json.List
          [ Bench.p50_row "setup_s" "s" setups;
            Bench.row ~clock:"host, probe-scaled" ~n:(List.length run_s) "mlups" "MLUP/s" (Some (points /. op_p50 /. 1e6))
              ~host:(points /. Bench.median (Bench.hosts run_s) /. 1e6)
              ~note:"outputs x output points per application / op_ms_p50";
            Bench.p50_row ~scale:1e3 "op_ms_p50" "ms" run_s;
            Bench.p90_row ~scale:1e3 "op_ms_p90" "ms" run_s;
            Bench.p50_row "time_to_solution_s" "s" tts_s;
            Bench.row ~n:1 "rss_peak_mb" "MiB" (Some (Bench.rss_peak_mb ())) ] );
      ("op_ms", Bench.summary ~scale:1e3 run_s);
      ("time_to_solution_s", Bench.summary tts_s);
      ("setup_s", Bench.summary setups);
      ("probe_ms", Bench.quartiles ~scale:1e3 (Array.to_list loop.Bench.probes));
      ( "partition",
        Json.String
          (match st.part.Advisor.inline with [] -> "(none)" | l -> String.concat "," l) );
      ("stages_after_fuse", Json.Int (Array.length st.fused.P.stages));
      ( "oracle",
        Json.String
          (Printf.sprintf
             "%d seeded points + 4 corners per output field per op, bit-identical \
              (no tolerance)"
             samples_per_field) ) ]
    @ layer_notes
  in
  let sizes =
    [ ("grid", Json.String "1024x1024");
      ("field_mib", Json.Float (mib (8 * dims.(0) * dims.(1))));
      ("materialized_mib", Json.Float (mib (input_bytes st.prog + stage_bytes st.prog)));
      ("fused_mib", Json.Float (mib (input_bytes st.prog + stage_bytes st.fused))) ]
  in
  Pool.shutdown st.pool;
  ( { Bench.attempted = loop.Bench.ops;
      failed = loop.Bench.op_failures;
      e2e;
      layers;
      detail },
    Bench.provenance ~workload:"hdiff-auto" ~seed ~backend:"plan" ~pool_domains:domains ~sizes )

(* advise-cold-warm: a seeded stream of advising requests, model only —
   no kernel ever executes, so ecm, store, lint.schedule and the pool do
   all the work and the engine none.

   Tuning requests are the analytic half of [tune]: Advisor.rank_all
   with the Lint.Schedule.legal filter, for each 3-D suite kernel below
   on each of four full-size machines (clx, rome and the two
   shipped machine files), at seeded dims and thread counts. Fusion
   requests are the --fuse auto decision (best_partition, then fuse) on
   generated hdiff-style programs with 1 to 6 independent chains, one
   of each per stream; the cost of composing the partition space grows
   as 8^k with the chain count. The stream is stratified (every kernel x
   machine and every chain count once per stream, seeded order), so the
   mix of request costs is the same whatever the seed.

   One cycle issues the stream twice on a pool of nproc domains: a cold
   pass against a fresh store (model evaluations written through), then
   a warm pass with a fresh in-memory model cache on the same store
   (answers read back). Cycles repeat until the run's time is up. *)

open Yasksite
module P = Stencil.Program
module Pool = Yasksite_util.Pool
module Prng = Yasksite_util.Prng

type request =
  | Tune of { machine : Machine.t; info : Stencil.Analysis.t; dims : int array; threads : int }
  | Fuse of { prog : P.t; chains : int }

let fuse_dims = [| 1024; 1024 |]
let fuse_config = Config.v ()
let fuse_machine = Machine.cascade_lake
let checked_per_pass = 2

(* The three 3-D stars/boxes of the evaluation suite. Their request
   costs overlap across the four machines, so the median of a pass lands
   inside one dense cluster; the cheap 2-D and variable-coefficient
   kernels would form clusters of their own and put the median in the
   gap between them, where it jumps with noise. *)
let tuned_kernels = Stencil.Suite.[ heat_3d_7pt; box_3d_27pt; star_3d_r2 ]

let machines () =
  [ Machine.cascade_lake; Machine.rome ]
  @ List.map
      (fun f ->
        match Machine_file.load f with
        | Ok m -> m
        | Error e -> failwith (f ^ ": " ^ e))
      [ "machines/skylake-sp.machine"; "machines/zen3.machine" ]

(* Dims stay in ranges where every candidate block is distinct, so the
   size of each request's search space does not depend on the seed. *)
let tune_dims rng rank =
  let r lo hi = lo + Prng.int rng ~bound:(hi - lo) in
  if rank = 2 then [| r 1024 4096; r 1024 4096 |] else [| r 64 512; r 64 512; r 512 1024 |]

(* An hdiff-style program: per chain a Laplacian, two limited fluxes and
   a masked update, with seeded coefficients so no two chains share a
   stage expression. *)
let fusion_text rng ~chains =
  let b = Buffer.create 2048 in
  let add fmt = Printf.bprintf b fmt in
  add "program gen%d\nrank 2\ninputs mask" chains;
  for i = 0 to chains - 1 do add " in%d" i done;
  add "\noutputs";
  for i = 0 to chains - 1 do add " out%d" i done;
  add "\n";
  for i = 0 to chains - 1 do
    let c = 3.5 +. Prng.float rng and s = 0.5 +. Prng.float rng in
    add "lap%d = -%.6f*in%d(y,x) + in%d(y,x-1) + in%d(y,x+1) + in%d(y-1,x) + in%d(y+1,x)\n" i c i i
      i i i;
    add
      "fli%d = select((lap%d(y,x+1) - lap%d(y,x)) * (in%d(y,x+1) - in%d(y,x)), 0, lap%d(y,x+1) - \
       lap%d(y,x))\n"
      i i i i i i i;
    add
      "flj%d = select((lap%d(y+1,x) - lap%d(y,x)) * (in%d(y+1,x) - in%d(y,x)), 0, lap%d(y+1,x) - \
       lap%d(y,x))\n"
      i i i i i i i;
    add "out%d = in%d(y,x) + %.6f*mask(y,x) * (fli%d(y,x-1) - fli%d(y,x) + flj%d(y-1,x) - flj%d(y,x))\n"
      i i s i i i i
  done;
  Buffer.contents b

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng ~bound:(i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let stream ~seed =
  let rng = Prng.create ~seed in
  let tunes =
    List.concat_map
      (fun (machine : Machine.t) ->
        List.map
          (fun spec ->
            let info = Stencil.Analysis.of_spec (Stencil.Suite.resolve_defaults spec) in
            let dims = tune_dims rng info.Stencil.Analysis.spec.Stencil.Spec.rank in
            Tune { machine; info; dims; threads = 1 + Prng.int rng ~bound:machine.Machine.cores })
          tuned_kernels)
      (machines ())
  in
  let fuses =
    List.init 6 (fun k ->
        let chains = k + 1 in
        let prog =
          Trace.span "stencil.parse" (fun () ->
              match P.parse (fusion_text rng ~chains) with
              | Ok p -> p
              | Error (line, msg) -> failwith (Printf.sprintf "generated program line %d: %s" line msg))
        in
        Fuse { prog; chains })
  in
  Array.of_list (shuffle rng (tunes @ fuses))

(* ---- answering a request ------------------------------------------- *)

type answer = Ranked of (Config.t * Model.prediction) list | Partition of Advisor.partition

let answer ?pool ?cache = function
  | Tune { machine; info; dims; threads } ->
      Ranked
        (Trace.span "ecm.rank_all" (fun () ->
             Advisor.rank_all ?cache ?pool
               ~filter:(Lint.Schedule.legal info ~dims)
               machine info ~dims ~threads))
  | Fuse { prog; _ } ->
      let part =
        Trace.span "ecm.best_partition" (fun () ->
            Advisor.best_partition ?cache fuse_machine prog ~dims:fuse_dims ~config:fuse_config)
      in
      ignore (Trace.span "stencil.fuse" (fun () -> P.fuse prog ~inline:part.Advisor.inline));
      Partition part

(* ---- checks --------------------------------------------------------- *)

let same_ranking a b =
  List.length a = List.length b
  && List.for_all2
       (fun (c1, p1) (c2, p2) ->
         Config.equal c1 c2
         && String.equal (Model_cache.prediction_to_string p1) (Model_cache.prediction_to_string p2))
       a b

(* One connected component of [p] as a program of its own. *)
let component_program (p : P.t) comp =
  let stages = List.filter_map (fun n -> P.find_stage p n) comp in
  let reads = List.concat_map (fun (s : P.stage) -> Array.to_list s.P.reads) stages in
  let inputs = Array.of_list (List.filter (fun i -> List.mem i reads) (Array.to_list p.P.inputs)) in
  let outputs = Array.of_list (List.filter (fun o -> List.mem o comp) (Array.to_list p.P.outputs)) in
  P.v ~name:(p.P.name ^ "-part") ~rank:p.P.rank ~inputs ~outputs stages

(* The best partition's predicted cost must equal the sum over
   components of each component's exhaustive minimum (ranked on its
   own, uncached). The sums associate differently, so a relative
   tolerance of 1e-12 is allowed. *)
let partition_ok (p : P.t) (part : Advisor.partition) =
  let sum =
    List.fold_left
      (fun acc comp ->
        match
          Advisor.rank_partitions fuse_machine (component_program p comp) ~dims:fuse_dims
            ~config:fuse_config
        with
        | best :: _ -> acc +. best.Advisor.time
        | [] -> nan)
      0.0 (P.components p)
  in
  abs_float (sum -. part.Advisor.time) <= 1e-12 *. abs_float sum

(* A pooled, cached or store-served answer must equal the sequential,
   uncached, store-less one. *)
let reference_ok req got =
  match (req, got) with
  | Tune _, Ranked l -> (
      match answer req with Ranked r -> same_ranking l r | Partition _ -> false)
  | Fuse _, Partition part -> (
      match answer req with
      | Partition r -> r.Advisor.inline = part.Advisor.inline && r.Advisor.time = part.Advisor.time
      | Ranked _ -> false)
  | _ -> false

(* ---- the run -------------------------------------------------------- *)

type state = { reqs : request array; pool : Pool.t; checked : bool array }

let setup ~seed ~domains () =
  let reqs = stream ~seed in
  let pool = Pool.create ~domains () in
  (* Warm-up: spawn the pool's domains and run the model on the stream's
     clx tuning requests (the same three kernels whatever the seed),
     store-less on a throwaway cache. *)
  let cache = Model_cache.create () in
  Array.iter
    (function
      | Tune { machine; _ } as req when machine == Machine.cascade_lake ->
          ignore (answer ~pool ~cache req)
      | _ -> ())
    reqs;
  (* The tuning requests of a pass re-answered against the reference (a
     seeded sample). Fusion requests are all checked against their
     per-component minima instead: re-answering the 6-chain one uncached
     would dwarf the run's own peak memory. *)
  let rng = Prng.create ~seed:(seed + 104729) in
  let tunes =
    List.filter (fun i -> match reqs.(i) with Tune _ -> true | Fuse _ -> false)
      (List.init (Array.length reqs) Fun.id)
  in
  let picked = List.filteri (fun i _ -> i < checked_per_pass) (shuffle rng tunes) in
  { reqs; pool; checked = Array.init (Array.length reqs) (fun i -> List.mem i picked) }

type pass = Cold | Warm

type timing = { op : int; cycle : int; pass : pass; kind : [ `Tune | `Fuse ]; secs : float }

let run ~seed ~seconds =
  let domains = Pool.default_domains () in
  let st, setups =
    Bench.repeated_setup ~discard:(fun st -> Pool.shutdown st.pool) (setup ~seed ~domains)
  in
  let n = Array.length st.reqs in
  let group = 2 * n in
  let store = ref None and store_dir = ref "" and cache = ref (Model_cache.create ()) in
  let samples = ref [] in
  let pass_stats = ref [] in
  let cold_cache_stats = ref [] and warm_cache_stats = ref [] in
  let snapshot () = Option.map Store.stats !store in
  let pass_start = ref None in
  let loop =
    Bench.closed_loop ~pool:st.pool ~group ~seconds (fun i ->
        let cycle = i / group and j = i mod group in
        let pass = if j < n then Cold else Warm in
        (* Pass boundaries: a fresh store per cycle, a fresh in-memory
           cache per pass. Not part of any request's time. *)
        if j = 0 then begin
          if !store_dir <> "" then Bench.remove_tree !store_dir;
          store_dir := Bench.scratch_dir "advise-store";
          store := Some (Store.open_root !store_dir)
        end;
        if j = 0 || j = n then begin
          (match (!pass_start, snapshot ()) with
          | Some s0, Some s1 -> pass_stats := (s0, s1) :: !pass_stats
          | _ -> ());
          if j = n then cold_cache_stats := Model_cache.stats !cache :: !cold_cache_stats;
          cache := Model_cache.create ();
          Model_cache.attach_store !cache (Option.get !store);
          pass_start := snapshot ()
        end;
        let req = st.reqs.(j mod n) in
        let got, secs = Bench.time (fun () -> answer ~pool:st.pool ~cache:!cache req) in
        let kind = match req with Tune _ -> `Tune | Fuse _ -> `Fuse in
        samples := { op = i; cycle; pass; kind; secs } :: !samples;
        if j = group - 1 then begin
          warm_cache_stats := Model_cache.stats !cache :: !warm_cache_stats;
          (match (!pass_start, snapshot ()) with
          | Some s0, Some s1 -> pass_stats := (s0, s1) :: !pass_stats
          | _ -> ());
          pass_start := None
        end;
        let check f = Trace.span "check" (fun () -> Trace.untraced f) in
        (match (req, got) with
        | Fuse { prog; _ }, Partition part -> check (fun () -> partition_ok prog part)
        | _ -> true)
        && ((not st.checked.(j mod n)) || check (fun () -> reference_ok req got)))
  in
  let samples = List.rev_map (fun t -> (t, Bench.in_op loop t.op t.secs)) !samples in
  let pick p =
    List.filter_map (fun (t, s) -> if p t then Some s else None) samples
  in
  let tune_cold = pick (fun t -> t.pass = Cold && t.kind = `Tune) in
  let tune_warm = pick (fun t -> t.pass = Warm && t.kind = `Tune) in
  let fuse = pick (fun t -> t.kind = `Fuse) in
  let cycles = loop.Bench.ops / group in
  let tts = List.init cycles (fun c -> Bench.total (pick (fun t -> t.cycle = c))) in
  let cold_pass_s = List.init cycles (fun c -> Bench.total (pick (fun t -> t.cycle = c && t.pass = Cold))) in
  let e2e =
    [ Bench.m "setup_s" "s" (Bench.median (Bench.scaleds setups));
      Bench.m "op_ms_p50" "ms" (1e3 *. Bench.median (Bench.scaleds tune_cold));
      Bench.m "time_to_solution_s" "s" (Bench.median (Bench.scaleds tts));
      Bench.m "rss_peak_mb" "MiB" (Bench.rss_peak_mb ()) ]
  in
  let layers, layer_notes =
    if not !Trace.enabled then ([], [])
    else begin
      (* Probe: the same stream, store-less and on a fresh cache — the
         model cost alone, against which the cold pass's store share is
         measured. *)
      let storeless =
        Trace.span "probe.storeless" (fun () ->
            let cache = Model_cache.create () in
            Array.to_list
              (Array.map
                 (fun req ->
                   let _, s = Bench.time_scaled ~pool:st.pool (fun () -> answer ~pool:st.pool ~cache req) in
                   (req, s.Bench.scaled))
                 st.reqs))
      in
      let storeless_pass = List.fold_left (fun a (_, s) -> a +. s) 0.0 storeless in
      let rank_ms =
        List.filter_map (fun (r, s) -> match r with Tune _ -> Some (1e3 *. s) | Fuse _ -> None) storeless
      in
      let pruned, n_tunes =
        Array.fold_left
          (fun (acc, k) -> function
            | Tune { machine; info; dims; threads } ->
                let rank = info.Stencil.Analysis.spec.Stencil.Spec.rank in
                let space = Advisor.space machine ~dims ~threads ~rank in
                let legal = List.filter (Lint.Schedule.legal info ~dims) space in
                (acc + List.length space - List.length legal, k + 1)
            | Fuse _ -> (acc, k))
          (0, 0) st.reqs
      in
      let partitions =
        List.filter_map
          (function Fuse { chains; _ } -> Some (8.0 ** float_of_int chains) | Tune _ -> None)
          (Array.to_list st.reqs)
      in
      let cold_cs = List.hd !cold_cache_stats and warm_cs = List.hd !warm_cache_stats in
      let pass_stats = List.rev !pass_stats in
      let cold_stats = List.filteri (fun i _ -> i mod 2 = 0) pass_stats in
      let warm_stats = List.filteri (fun i _ -> i mod 2 = 1) pass_stats in
      let mean_delta l f =
        match l with
        | [] -> 0.0
        | l ->
            List.fold_left (fun a (s0, s1) -> a +. float_of_int (f s1 - f s0)) 0.0 l
            /. float_of_int (List.length l)
      in
      let ms name = 1e3 *. Bench.median (Trace.durations name) in
      let cold_pass = Bench.median (Bench.scaleds cold_pass_s) in
      let measured =
        [ ("stencil.parse_ms", ms "stencil.parse");
          ("stencil.fuse_ms", ms "stencil.fuse");
          ("lint.schedule_pruned", float_of_int pruned /. float_of_int (max 1 n_tunes));
          ( "ecm.model_evals",
            float_of_int (cold_cs.Model_cache.misses - cold_cs.Model_cache.store_hits)
            /. float_of_int n );
          ("ecm.cache_hit_rate", Bench.hit_rate warm_cs);
          ("ecm.rank_ms", Bench.median rank_ms);
          ("ecm.partitions", Bench.median partitions);
          ("ecm.best_partition_ms", ms "ecm.best_partition");
          ("store.writes", mean_delta cold_stats (fun s -> s.Store.writes));
          ("store.hits", mean_delta warm_stats (fun s -> s.Store.hits));
          ("store.misses", mean_delta cold_stats (fun s -> s.Store.misses));
          ( "store.write_errors",
            mean_delta pass_stats (fun s -> s.Store.write_errors) *. 2.0 );
          ("store.quarantined", mean_delta pass_stats (fun s -> s.Store.quarantined) *. 2.0);
          ("store.bytes", match !store with Some s -> float_of_int (Store.usage s).Store.bytes | None -> 0.0);
          ("store.cold_share", (cold_pass -. storeless_pass) /. cold_pass);
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
              "model only: engine, native kernels, cachesim, ODE and Offsite do not run and \
               read 0. ecm.model_evals: evaluations computed per request in the cold pass; \
               ecm.cache_hit_rate: in-memory hit rate of the warm pass (store-served answers count in store.hits); \
               ecm.rank_ms: a tuning request store-less on a fresh cache; ecm.partitions: \
               median over the stream's fusion requests of prod 2^k; store.writes/misses \
               per cold pass, store.hits per warm pass, errors and quarantines per cycle, \
               bytes at the end; store.cold_share: (cold pass - the same pass store-less) / \
               cold pass; lint.schedule_pruned: configs rejected per tuning request." ) ] )
    end
  in
  let detail =
    [ ( "report",
        Json.List
          [ Bench.p50_row "setup_s" "s" setups;
            Bench.p50_row ~scale:1e3 "tune_cold_ms_p50" "ms" tune_cold;
            Bench.p90_row ~scale:1e3 "tune_cold_ms_p90" "ms" tune_cold;
            Bench.p50_row ~scale:1e3 "tune_warm_ms_p50" "ms" tune_warm;
            Bench.p90_row ~scale:1e3 "tune_warm_ms_p90" "ms" tune_warm;
            Bench.p50_row ~scale:1e3 "fuse_ms_p50" "ms" fuse;
            Bench.p90_row ~scale:1e3 "fuse_ms_p90" "ms" fuse;
            Bench.p50_row "time_to_solution_s" "s" tts;
            Bench.row ~n:1 "rss_peak_mb" "MiB" (Some (Bench.rss_peak_mb ())) ] );
      ("tune_cold_ms", Bench.summary ~scale:1e3 tune_cold);
      ("probe_ms", Bench.quartiles ~scale:1e3 (Array.to_list loop.Bench.probes));
      ("tune_warm_ms", Bench.summary ~scale:1e3 tune_warm);
      ("fuse_ms", Bench.summary ~scale:1e3 fuse);
      ("time_to_solution_s", Bench.summary tts);
      ("cold_pass_s", Bench.summary cold_pass_s);
      ("cycles", Json.Int cycles);
      ("requests_per_stream", Json.Int n);
      ("setup_s", Bench.summary setups);
      ( "checks",
        Json.String
          (Printf.sprintf
             "%d seeded tuning requests per pass re-answered sequentially, uncached \
              and store-less (exact equality); every best_partition cost = sum of \
              per-component exhaustive minima (relative tolerance 1e-12)"
             checked_per_pass) ) ]
    @ layer_notes
  in
  if !store_dir <> "" then Bench.remove_tree !store_dir;
  Pool.shutdown st.pool;
  ( { Bench.attempted = loop.Bench.ops; failed = loop.Bench.op_failures; e2e; layers; detail },
    Bench.provenance ~workload:"advise-cold-warm" ~seed ~backend:"none (model only)"
      ~pool_domains:domains
      ~sizes:
        [ ("tune_dims", Json.String "2d: [1024,4096)^2; 3d: [64,512)x[64,512)x[512,1024)");
          ("fuse_dims", Json.String "1024x1024") ] )

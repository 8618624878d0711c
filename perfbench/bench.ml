(* Shared pieces of the three workloads: timing loops, sample
   summaries, the result record, provenance, and the per-layer metric
   catalogue every traced run reports. *)

open Yasksite

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- samples ------------------------------------------------------ *)

let median l =
  match l with
  | [] -> nan
  | l -> Yasksite_util.Stats.median (Array.of_list l)

let percentile l p =
  match l with
  | [] -> nan
  | l -> Yasksite_util.Stats.percentile (Array.of_list l) ~p

(* A p90 is reported only when at least ten samples lie beyond it. *)
let p90 l =
  let v = percentile l 90.0 in
  if List.length (List.filter (fun x -> x > v) l) >= 10 then Some v else None

let quartiles ?(scale = 1.0) l =
  let l = List.map (fun x -> x *. scale) l in
  Json.Assoc
    [ ("n", Json.Int (List.length l));
      ("p50", Json.Float (median l));
      ("q1", Json.Float (percentile l 25.0));
      ("q3", Json.Float (percentile l 75.0));
      ("p90", match p90 l with Some v -> Json.Float v | None -> Json.Null) ]

(* ---- the result of one run ----------------------------------------- *)

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }

type outcome = {
  attempted : int;
  failed : int;
  e2e : metric list;  (** the BENCHMARK.json end-to-end metrics *)
  layers : metric list;  (** per-layer metrics (traced runs only) *)
  detail : (string * Json.t) list;
      (** everything else: the workload's own named metrics, sample
          counts, sizes, notes on layers it bypasses *)
}

(* ---- host interference -------------------------------------------- *)

(* Shared hosts change a core's speed while a neighbour runs: on a
   shared 2-vCPU Xeon VM a fixed loop's median over 20 s windows ranged
   0.039-0.078 s.
   Medians over a run do not average that out, so every timed sample is
   paired with a host-speed probe: a fixed benchmark-local compute kernel
   run on each pool domain (or the calling domain) right before the
   sample and right after it. The end-to-end metrics are host times
   scaled by [probe_nominal / probe], i.e. host time at the probe speed
   of a quiet core; the record keeps the unscaled host times beside them.
   The probe's timed region runs no library code (on a pool each domain
   times only its own kernel run), so a change to the library moves the
   scaled times in proportion to the host times. *)
let probe_nominal = 1e-3

let probe_data = Array.init 4096 (fun i -> float_of_int i)

let probe_kernel () =
  let s = ref 0.0 in
  for _ = 1 to 300 do
    for i = 0 to 4095 do
      s := !s +. (Array.unsafe_get probe_data i *. 1.0000001)
    done
  done;
  !s

(* On a pool, each domain times its own run of the kernel and the
   slowest reading counts: the op waits for its slowest domain, and the
   pool's wake-up latency stays out of the reading. *)
let host_probe ?pool () =
  let timed () =
    let t0 = now () in
    ignore (Sys.opaque_identity (probe_kernel ()));
    now () -. t0
  in
  match pool with
  | None -> timed ()
  | Some p ->
      let n = Yasksite_util.Pool.size p in
      let readings = Array.make n 0.0 in
      Yasksite_util.Pool.parallel_for ~chunk:1 p ~n (fun i -> readings.(i) <- timed ());
      Array.fold_left Float.max 0.0 readings

(* A timed sample: host seconds and the probe-scaled seconds. *)
type sample = { host : float; scaled : float }

let scaled_by ~before ~after host =
  { host; scaled = host *. probe_nominal /. ((before +. after) /. 2.0) }

(* Time [f] between two probes. *)
let time_scaled ?pool f =
  let before = host_probe ?pool () in
  let r, dt = time f in
  let after = host_probe ?pool () in
  (r, scaled_by ~before ~after dt)

let total l =
  { host = List.fold_left (fun a s -> a +. s.host) 0.0 l;
    scaled = List.fold_left (fun a s -> a +. s.scaled) 0.0 l }

let hosts l = List.map (fun s -> s.host) l
let scaleds l = List.map (fun s -> s.scaled) l

let summary ?scale l =
  Json.Assoc [ ("scaled", quartiles ?scale (scaleds l)); ("host", quartiles ?scale (hosts l)) ]

(* One row of a workload's report: a metric with its unit, sample count,
   clock, the probe-scaled value and the plain host value. *)
let row ?(note = "") ?(clock = "host") ?host ~n name unit value =
  Json.Assoc
    [ ("name", Json.String name);
      ("unit", Json.String unit);
      ("value", match value with Some v -> Json.Float v | None -> Json.Null);
      ("host", match host with Some v -> Json.Float v | None -> Json.Null);
      ("n", Json.Int n);
      ("clock", Json.String clock);
      ("note", Json.String note) ]

let p50_row ?(scale = 1.0) name unit l =
  row ~clock:"host, probe-scaled" ~n:(List.length l) name unit
    ~host:(scale *. median (hosts l))
    (Some (scale *. median (scaleds l)))

let p90_row ?(scale = 1.0) name unit l =
  match (p90 (scaleds l), p90 (hosts l)) with
  | Some v, h ->
      row ~clock:"host, probe-scaled" ~n:(List.length l) name unit
        ?host:(Option.map (fun h -> scale *. h) h) (Some (scale *. v))
  | None, _ -> row ~note:"fewer than 10 samples beyond p90" ~n:(List.length l) name unit None

(* Closed loop: the next op starts only after the previous returned.
   Ops keep starting until [seconds] have passed (at least one runs);
   ops come in indivisible groups of [group] (a whole request stream),
   and the loop only stops at a group boundary. Before each op the heap
   is collected, outside any timing, so peak memory and GC work do not
   depend on when the collector last ran. The host probe runs before
   each op and once after the last. An op that raises or fails
   its check counts as failed and the loop goes on. In a traced run
   every other group runs with tracing off, so the run can report its
   own tracing overhead. *)
type loop = {
  ops : int;
  op_failures : int;
  probes : float array;  (** [ops + 1] probe readings around the ops *)
  op_s : (float * bool) list;  (** whole-op host time, and whether traced *)
  minor_mb : float;  (** main-domain minor-heap allocation per op *)
  major_collections : float;  (** per op *)
}

(* Scale a host time measured inside op [i]. *)
let in_op loop i host =
  scaled_by ~before:loop.probes.(i) ~after:loop.probes.(i + 1) host

let closed_loop ?pool ?(group = 1) ~seconds op =
  let t0 = now () in
  let attempted = ref 0 and failed = ref 0 in
  let op_s = ref [] in
  let minor_words = ref 0.0 and majors = ref 0 and probes = ref [] in
  let tracing = !Trace.enabled in
  while !attempted = 0 || !attempted mod group <> 0 || now () -. t0 < seconds do
    let i = !attempted in
    Gc.full_major ();
    incr attempted;
    let on = (not tracing) || i / group mod 2 = 0 in
    Trace.set_op i;
    let run () =
      time (fun () ->
          match Trace.span "op" (fun () -> op i) with
          | ok -> ok
          | exception e ->
              Printf.eprintf "op %d raised: %s\n%!" i (Printexc.to_string e);
              false)
    in
    probes := host_probe ?pool () :: !probes;
    let g0 = Gc.quick_stat () in
    let ok, dt = if on then run () else Trace.untraced run in
    let g1 = Gc.quick_stat () in
    minor_words := !minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    majors := !majors + (g1.Gc.major_collections - g0.Gc.major_collections);
    if not ok then incr failed;
    op_s := (dt, on) :: !op_s;
    Trace.set_op (-1)
  done;
  probes := host_probe ?pool () :: !probes;
  let ops = float_of_int !attempted in
  { ops = !attempted;
    op_failures = !failed;
    probes = Array.of_list (List.rev !probes);
    op_s = List.rev !op_s;
    minor_mb = !minor_words *. float_of_int (Sys.word_size / 8) /. 1048576.0 /. ops;
    major_collections = float_of_int !majors /. ops }

(* Set-up runs [setup_repeats] times; the run keeps the last state,
   hands the others to [discard] outside the timed region, and reports
   the median. The heap is collected before each set-up, and the
   calling domain's probe brackets it. *)
let setup_repeats = 3

let repeated_setup ?(discard = ignore) f =
  let rec go k acc last =
    if k = 0 then (Option.get last, List.rev acc)
    else begin
      Option.iter discard last;
      Gc.full_major ();
      let before = host_probe () in
      let s, dt = time f in
      let after = host_probe () in
      go (k - 1) (scaled_by ~before ~after dt :: acc) (Some s)
    end
  in
  go setup_repeats [] None

(* ---- runtime ------------------------------------------------------- *)

let rss_peak_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
          | Some _ -> scan ()
        in
        scan ())
  with _ -> nan

(* ---- provenance ---------------------------------------------------- *)

let read_file path =
  try Some (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with _ -> None

(* The checkout the benchmark runs in need not be a git repository; read
   .git directly rather than spawn git. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some c -> c
      | None -> (
          match read_file ".git/packed-refs" with
          | None -> "unknown"
          | Some packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun l ->
                     match String.split_on_char ' ' l with
                     | [ c; name ] when name = r -> Some c
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | Some c -> c

let host_caches () =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Array.to_list (Sys.readdir dir) with _ -> [] in
  List.filter_map
    (fun e ->
      if not (String.starts_with ~prefix:"index" e) then None
      else
        let f x = read_file (Filename.concat (Filename.concat dir e) x) in
        match (f "level", f "type", f "size") with
        | Some level, Some ty, Some size when ty <> "Instruction" ->
            Some ("L" ^ level, Json.String size)
        | _ -> None)
    (List.sort compare entries)

let rec ml_lines dir =
  let entries = try Sys.readdir dir with _ -> [||] in
  Array.fold_left
    (fun acc e ->
      let p = Filename.concat dir e in
      if Sys.is_directory p then acc + ml_lines p
      else if Filename.check_suffix e ".ml" then
        acc
        + (try
             In_channel.with_open_bin p (fun ic ->
                 let n = ref 0 in
                 String.iter
                   (fun c -> if c = '\n' then incr n)
                   (In_channel.input_all ic);
                 !n)
           with _ -> 0)
      else acc)
    0 entries

let provenance ~workload ~seed ~backend ~pool_domains ~sizes =
  Json.Assoc
    ([ ("workload", Json.String workload);
       ("seed", Json.Int seed);
       ("commit", Json.String (commit ()));
       ("nproc", Json.Int (Domain.recommended_domain_count ()));
       ("pool_domains", Json.Int pool_domains);
       ("backend", Json.String backend);
       ("native_available", Json.Bool (Engine.Native.available ()));
       ( "toolchain",
         match Engine.Native.toolchain_id () with
         | Some (v, flags) -> Json.String (String.concat " " (v :: flags))
         | None -> Json.Null );
       ("ocaml", Json.String Sys.ocaml_version);
       ("host_caches", Json.Assoc (host_caches ()));
       ("lib_ml_lines", Json.Int (ml_lines "lib"));
       ("bin_ml_lines", Json.Int (ml_lines "bin")) ]
    @ sizes)

(* ---- per-layer metrics --------------------------------------------- *)

(* Every traced run reports the whole catalogue; a layer a workload
   bypasses reads 0 there, and the record's notes say so. The catalogue
   (and which end-to-end metric each entry should move) is documented in
   perfbench/README.md. *)
let layer_catalogue =
  [ ("stencil.parse_ms", "ms");
    ("stencil.fuse_ms", "ms");
    ("stencil.stages_after_fuse", "count");
    ("lint.program_ms", "ms");
    ("lint.schedule_pruned", "count");
    ("ecm.model_evals", "count");
    ("ecm.cache_hit_rate", "ratio");
    ("ecm.rank_ms", "ms");
    ("ecm.partitions", "count");
    ("ecm.best_partition_ms", "ms");
    ("store.writes", "count");
    ("store.hits", "count");
    ("store.misses", "count");
    ("store.write_errors", "count");
    ("store.quarantined", "count");
    ("store.bytes", "bytes");
    ("store.cold_share", "ratio");
    ("engine.prog_ms", "ms");
    ("engine.points", "count");
    ("engine.vec_units", "count");
    ("engine.rows", "count");
    ("engine.blocks", "count");
    ("engine.flops", "count");
    ("engine.bytes_computed", "bytes");
    ("engine.intermediate_mb", "MiB");
    ("engine.auto_over_none", "ratio");
    ("engine.pool_speedup", "ratio");
    ("native.setup.compiles", "count");
    ("native.setup.validations", "count");
    ("native.setup.store_hits", "count");
    ("native.setup.loads", "count");
    ("native.setup.fallbacks", "count");
    ("native.setup.validator_rejections", "count");
    ("native.op.compiles", "count");
    ("native.op.validations", "count");
    ("native.op.store_hits", "count");
    ("native.op.loads", "count");
    ("native.op.fallbacks", "count");
    ("native.op.validator_rejections", "count");
    ("native.resolve_ms", "ms");
    ("cachesim.measures", "count");
    ("cachesim.sim_points", "count");
    ("cachesim.measure_ms", "ms");
    ("ode.rhs_evals", "count");
    ("ode.rhs_ms", "ms");
    ("ode.reference_ms", "ms");
    ("offsite.evaluate_ms", "ms");
    ("offsite.candidates", "count");
    ("offsite.create_ms", "ms");
    ("offsite.step_ms", "ms");
    ("offsite.solve_err", "max-abs");
    ("gc.minor_mb", "MiB");
    ("gc.major_collections", "count");
    ("trace.overhead_pct", "%") ]

(* Fill the catalogue from what a workload measured; anything it did not
   measure reads 0 and is listed under [bypassed]. *)
let layer_metrics measured =
  let metrics =
    List.map
      (fun (name, unit) ->
        m name unit (Option.value ~default:0.0 (List.assoc_opt name measured)))
      layer_catalogue
  in
  let bypassed =
    List.filter_map
      (fun (name, _) ->
        if List.mem_assoc name measured then None else Some (Json.String name))
      layer_catalogue
  in
  (metrics, bypassed)

(* In-memory model-cache hit rate (Model_cache.hit_rate, from a stats
   snapshot). *)
let hit_rate (s : Model_cache.stats) =
  let l = s.Model_cache.hits + s.Model_cache.misses in
  if l = 0 then 0.0 else float_of_int s.Model_cache.hits /. float_of_int l

let native_zero =
  { Engine.Native.compiles = 0;
    compile_errors = 0;
    store_hits = 0;
    loads = 0;
    load_errors = 0;
    fallbacks = 0;
    gate_rejections = 0;
    validations = 0;
    validator_rejections = 0 }

let native_delta (a : Engine.Native.stats) (b : Engine.Native.stats) ~prefix =
  let d f = float_of_int (f b - f a) in
  let open Engine.Native in
  [ (prefix ^ "compiles", d (fun s -> s.compiles));
    (prefix ^ "validations", d (fun s -> s.validations));
    (prefix ^ "store_hits", d (fun s -> s.store_hits));
    (prefix ^ "loads", d (fun s -> s.loads));
    (prefix ^ "fallbacks", d (fun s -> s.fallbacks));
    (prefix ^ "validator_rejections", d (fun s -> s.validator_rejections)) ]

(* Tracing overhead from inside the traced run: ops (or request streams)
   alternate between traced and untraced, and the ratio of their
   probe-scaled medians is reported. *)
let overhead_pct loop =
  let pick want =
    List.concat
      (List.mapi
         (fun i (dt, on) -> if on = want then [ (in_op loop i dt).scaled ] else [])
         loop.op_s)
  in
  match (pick true, pick false) with
  | [], _ | _, [] -> 0.0
  | traced, untraced -> 100.0 *. ((median traced /. median untraced) -. 1.0)

let rec remove_tree p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* A fresh directory under _perfbench/ in the checkout (the store roots
   and the compiler's temporary files live there); [remove_tree] it when
   done. *)
let scratch_dir name =
  let root = "_perfbench" in
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  remove_tree dir;
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  Sys.mkdir dir 0o755;
  dir

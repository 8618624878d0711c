(* perfbench: the repository's host-time benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload for S seconds and prints, as its last stdout line,
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. The line before
   it is the full record (provenance, sample counts, the workload's own
   named metrics). A traced run also writes a Chrome trace-event file
   under _perfbench/ and prints a per-span self-time table to stderr. *)

let workloads =
  [ ("hdiff-auto", Hdiff_auto.run); ("offsite-heat2d", Offsite_heat2d.run);
    ("advise-cold-warm", Advise_cold_warm.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: hdiff-auto offsite-heat2d advise-cold-warm";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1.0) and trace = ref (-1) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := (try int_of_string v with _ -> usage ()); parse rest
    | "--seconds" :: v :: rest ->
        seconds := (try float_of_string v with _ -> usage ()); parse rest
    | "--trace" :: v :: rest -> trace := (try int_of_string v with _ -> usage ()); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  if !trace = 1 then Trace.start ();
  (* Kernel compiles write temporary files; keep them in the checkout. *)
  let tmp = Filename.concat (Sys.getcwd ()) (Bench.scratch_dir "tmp") in
  Filename.set_temp_dir_name tmp;
  Unix.putenv "TMPDIR" tmp;
  let o, provenance =
    try run ~seed:!seed ~seconds:!seconds
    with e ->
      Printf.eprintf "perfbench %s: set-up failed: %s\n%!" !workload (Printexc.to_string e);
      Bench.remove_tree tmp;
      exit 1
  in
  Bench.remove_tree tmp;
  let metrics = if !trace = 1 then o.Bench.layers else o.Bench.e2e in
  let metric_json (mt : Bench.metric) =
    (mt.Bench.name, Json.Assoc [ ("value", Json.Float mt.Bench.value); ("unit", Json.String mt.Bench.unit) ])
  in
  let finite = List.for_all (fun (mt : Bench.metric) -> Float.is_finite mt.Bench.value) metrics in
  let correct = o.Bench.failed = 0 && finite in
  if !trace = 1 then begin
    let file = Printf.sprintf "_perfbench/trace-%s-%d.json" !workload !seed in
    (try
       if not (Sys.file_exists "_perfbench") then Sys.mkdir "_perfbench" 0o755;
       Out_channel.with_open_bin file (fun oc ->
           output_string oc (Json.to_string (Trace.chrome_json ())))
     with Sys_error e -> Printf.eprintf "cannot write %s: %s\n%!" file e);
    Printf.eprintf "%s self time (host wall clock), trace in %s\n%s%!" !workload file
      (Trace.self_time_table ())
  end;
  let record =
    Json.Assoc
      [ ( "perfbench",
          Json.Assoc
            [ ("provenance", provenance);
              ("trace", Json.Bool (!trace = 1));
              ("seconds", Json.Float !seconds);
              ("attempted", Json.Int o.Bench.attempted);
              ("failed", Json.Int o.Bench.failed);
              ("metrics", Json.Assoc (List.map metric_json metrics));
              ("detail", Json.Assoc o.Bench.detail) ] ) ]
  in
  print_endline (Json.to_string record);
  print_endline
    (Json.to_string
       (Json.Assoc
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int o.Bench.attempted);
            ("failed", Json.Int o.Bench.failed);
            ("metrics", Json.Assoc (List.map metric_json metrics)) ]))

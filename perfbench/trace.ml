(* Spans recorded from outside the library: the benchmark wraps each
   call into a layer's public functions. Spans are kept in memory and
   written when the run ends, as Chrome trace-event JSON (Perfetto and
   chrome://tracing open it) plus a per-name self-time table. Only the
   main domain records; work the library fans out to its pool shows up
   inside the span of the call that submitted it.

   When disabled, [span] is a plain call: no clock read, no allocation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  op : int;  (** op the span belongs to; -1 during set-up and probes *)
  start : float;  (** seconds, wall clock *)
  stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)
let epoch = ref 0.0

let start () =
  enabled := true;
  recorded := [];
  open_spans := [];
  next_id := 0;
  current_op := -1;
  epoch := Unix.gettimeofday ()

let set_op i = current_op := i

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let op = !current_op in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        open_spans := List.tl !open_spans;
        recorded := { id; name; parent; op; start = t0; stop = t1 } :: !recorded)
      f
  end

let spans () = List.rev !recorded

(* A run of the benchmark with tracing switched off for [f]: used to
   measure the tracing overhead inside a traced run. *)
let untraced f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

(* Durations of every span called [name]; [in_ops] keeps only those
   recorded inside timed ops. *)
let durations ?(in_ops = false) name =
  List.filter_map
    (fun s ->
      if s.name = name && ((not in_ops) || s.op >= 0) then
        Some (s.stop -. s.start)
      else None)
    (spans ())

(* Self time: a span's duration minus the union of its children's
   intervals. *)
let self_times () =
  let all = spans () in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    all;
  let covered s =
    let kids =
      List.sort (fun a b -> compare a.start b.start)
        (Option.value ~default:[] (Hashtbl.find_opt children s.id))
    in
    let sum, last_lo, last_hi =
      List.fold_left
        (fun (sum, lo, hi) k ->
          if k.start > hi then (sum +. (hi -. lo), k.start, k.stop)
          else (sum, lo, Float.max hi k.stop))
        (0.0, 0.0, 0.0) kids
    in
    sum +. (last_hi -. last_lo)
  in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. covered s in
      let n, d, sf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, d +. dur, sf +. self))
    all;
  Hashtbl.fold (fun name (n, d, sf) acc -> (name, n, d, sf) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let self_time_table () =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-34s %7s %12s %12s\n" "span" "count" "total ms"
       "self ms");
  List.iter
    (fun (name, n, d, sf) ->
      Buffer.add_string b
        (Printf.sprintf "%-34s %7d %12.3f %12.3f\n" name n (1e3 *. d)
           (1e3 *. sf)))
    (self_times ());
  Buffer.contents b

let chrome_json () =
  let us t = Json.Float (1e6 *. (t -. !epoch)) in
  Json.Assoc
    [ ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Assoc
                 [ ("name", Json.String s.name);
                   ("cat", Json.String (List.hd (String.split_on_char '.' s.name)));
                   ("ph", Json.String "X");
                   ("ts", us s.start);
                   ("dur", Json.Float (1e6 *. (s.stop -. s.start)));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Assoc
                       [ ("id", Json.Int s.id);
                         ("parent", Json.Int s.parent);
                         ("op", Json.Int s.op) ] ) ])
             (spans ())) );
      ("displayTimeUnit", Json.String "ms") ]

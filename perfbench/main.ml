(* perfbench — the repository benchmark.

     main.exe --workload point_read|write_churn|analytic --seed N --seconds S --trace 0|1

   --trace 0: the wire run. A child systemr_server is set up several times
   (setup_s is the median), then driven closed-loop for S seconds (a fixed
   statement count for write_churn) and every answer is checked.
   --trace 1: a short wire run over a fixed prefix of the same stream, then
   the traced in-process replay of that prefix, which gives the per-layer
   metrics.

   Human-readable lines go to stdout first; the last line is one JSON object
   {correct, attempted, failed, metrics}. Exit status 1 on a wrong answer.
   Run from the repository root, after building bin/systemr_server.exe. *)

let setup_reps = 7

(* Per connection, the prefix the traced run replays: a fixed count, so
   counts repeat exactly at one seed. write_churn replays its whole stream. *)
let trace_prefix = function
  | "point_read" -> 10_000
  | "analytic" -> 300
  | _ -> max_int

type metric = { name : string; value : float; unit_ : string; samples : int option }

let metric ?samples name unit_ value = { name; value; unit_; samples }

(* Shortest decimal that reads back as the same float. *)
let json_float v =
  let s = Printf.sprintf "%.15g" v in
  let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      Printf.printf "%-30s %16.4f %-6s%s\n" m.name m.value m.unit_
        (match m.samples with Some n -> Printf.sprintf "  (n=%d)" n | None -> ""))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value)
             m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* Compare held wire replies with the replay's outputs, statement by
   statement; returns the number that differ. *)
let compare_reference held (outputs : (Gen.stmt * Rel.Tuple.t list) Queue.t) =
  let wrong = ref 0 in
  let outs = Queue.to_seq outputs |> List.of_seq in
  let rec go held outs =
    match held, outs with
    | (st, rows) :: h, (st', rows') :: o ->
      if st.Gen.sql <> st'.Gen.sql || not (Gen.same_rows rows rows') then begin
        incr wrong;
        if !wrong <= 5 then Printf.eprintf "analytic answer differs from replay: %s\n%!" st.Gen.sql
      end;
      go h o
    | [], _ -> ()
    | _ :: _, [] ->
      incr wrong;
      prerr_endline "replay produced fewer answers than the wire run"
  in
  go held outs;
  !wrong

let latency_metrics (run : Wire.run) =
  let p name s q = metric ~samples:(Dist.count s) name "us" (Dist.pct s q) in
  [ metric "qps" "1/s" (Dist.ratio (float_of_int (Dist.count run.Wire.all)) run.Wire.elapsed_s);
    p "p50_us" run.Wire.all 0.5; p "p99_us" run.Wire.all 0.99 ]

(* Printed but kept out of the JSON: the read/write split and the error rate
   are 0 or duplicates on some workloads, and a read on write_churn either
   runs at once or waits out the other caller's DML, so its median flips
   between the two modes from run to run. *)
let report_only (run : Wire.run) =
  let p name s q =
    Printf.printf "%-30s %16.4f %-6s  (n=%d)\n" name (Dist.pct s q) "us" (Dist.count s)
  in
  p "read_p50_us" run.Wire.reads 0.5;
  p "read_p99_us" run.Wire.reads 0.99;
  p "write_p50_us" run.Wire.writes 0.5;
  p "write_p99_us" run.Wire.writes 0.99;
  Printf.printf "%-30s %16.6f %-6s  (%d of %d)\n" "error_rate"
    (Dist.ratio (float_of_int run.Wire.errors) (float_of_int run.Wire.attempted))
    "ratio" run.Wire.errors run.Wire.attempted

(* Limit each connection's stream to its first [n] statements. *)
let limit n gens =
  Array.map
    (fun g ->
      let left = ref n in
      fun () ->
        if !left <= 0 then None
        else begin
          decr left;
          g ()
        end)
    gens

let wire_run (w : Gen.workload) ~script ~sock ~reps ~streams ~deadline_s =
  let setups = Dist.samples () in
  let rec setup k =
    let srv, conns, secs = Wire.setup w ~script ~sock in
    Dist.push setups secs;
    if k < reps then begin
      Wire.close conns;
      Wire.stop srv;
      setup (k + 1)
    end
    else (srv, conns)
  in
  let srv, conns = setup 1 in
  let deadline_ns =
    Option.map (fun s -> Dist.now_ns () + int_of_float (s *. 1e9)) deadline_s
  in
  let run = Wire.drive conns streams ~deadline_ns in
  Wire.final_checks run conns.(0) w;
  let rss = Wire.peak_rss_mb srv in
  Wire.close conns;
  Wire.stop srv;
  (run, Dist.median setups, rss)

let end_to_end (w : Gen.workload) ~seconds ~script ~sock =
  let deadline_s = if w.Gen.timed then Some (float_of_int seconds) else None in
  let run, setup_s, rss =
    wire_run w ~script ~sock ~reps:setup_reps ~streams:(w.Gen.streams ()) ~deadline_s
  in
  let wrong =
    if run.Wire.held = [] then run.Wire.wrong
    else begin
      let reference = Traced.replay ~layers:false w (List.rev_map fst run.Wire.held) in
      run.Wire.wrong + reference.Traced.wrong
      + compare_reference (List.rev run.Wire.held) reference.Traced.outputs
    end
  in
  let metrics =
    (metric ~samples:setup_reps "setup_s" "s" setup_s :: latency_metrics run)
    @ [ metric "server_rss_mb" "MB" rss ]
  in
  report_only run;
  (wrong = 0, run.Wire.attempted, run.Wire.errors, metrics)

(* --- traced run ----------------------------------------------------------- *)

let q_errors (t : Traced.t) =
  let s = Dist.samples () in
  Queue.iter (fun (e : Traced.exec) -> Dist.push s (Dist.q_error e.predicted e.measured)) t.Traced.execs;
  s

let dml_us (t : Traced.t) kind =
  let s = Dist.samples () in
  Queue.iter (fun (k, us) -> if k = kind then Dist.push s us) t.Traced.dml;
  s

(* Median DML time in the last tenth of the run over the first tenth. *)
let dml_drift (t : Traced.t) =
  let all = Array.of_seq (Seq.map snd (Queue.to_seq t.Traced.dml)) in
  let n = Array.length all in
  if n < 10 then 0.
  else begin
    let tenth a = let s = Dist.samples () in Array.iter (Dist.push s) a; Dist.median s in
    Dist.ratio (tenth (Array.sub all (n - (n / 10)) (n / 10))) (tenth (Array.sub all 0 (n / 10)))
  end

let per_layer (t : Traced.t) (run : Wire.run) =
  let io = t.Traced.io in
  let med layer =
    let s = Traced.span_us t layer in
    (Dist.median s, Dist.count s)
  in
  let us name layer =
    let v, n = med layer in
    metric ~samples:n name "us" v
  in
  let qe = q_errors t in
  let dmls = Queue.length t.Traced.dml in
  let f = float_of_int in
  [ us "protocol.decode_us" "protocol.decode";
    us "protocol.encode_us" "protocol.encode";
    metric "protocol.reply_bytes" "bytes" (Dist.ratio (f t.Traced.reply_bytes) (f t.Traced.replies));
    metric ~samples:(Dist.count run.Wire.reads) "server.overhead_us" "us"
      (Dist.median run.Wire.reads -. Dist.median t.Traced.session_reads);
    us "sql.parse_us" "sql.parse";
    us "sql.fingerprint_us" "sql.fingerprint";
    us "sql.resolve_us" "sql.resolve";
    us "plan_cache.probe_us" "plan_cache.probe";
    metric ~samples:t.Traced.probes "plan_cache.hit_ratio" "ratio"
      (Dist.ratio (f t.Traced.probe_hits) (f t.Traced.probes));
    us "optimizer.optimize_us" "optimizer.optimize";
    metric ~samples:(Dist.count qe) "optimizer.cost_q_error_p50" "ratio" (Dist.pct qe 0.5);
    metric ~samples:(Dist.count qe) "optimizer.cost_q_error_p95" "ratio" (Dist.pct qe 0.95);
    us "executor.exec_us" "executor.exec";
    metric "executor.rsi_calls" "count" (f io.Rss.Counters.rsi_calls);
    metric "executor.rsi_per_row" "ratio" (Dist.ratio (f io.Rss.Counters.rsi_calls) (f t.Traced.rows_out));
    metric "executor.pages_written" "count" (f io.Rss.Counters.pages_written);
    metric "executor.sort_runs" "count" (f io.Rss.Counters.sort_runs);
    metric "rss.page_fetches" "count" (f io.Rss.Counters.page_fetches);
    metric "rss.buffer_hit_ratio" "ratio"
      (Dist.ratio (f io.Rss.Counters.buffer_hits)
         (f (io.Rss.Counters.buffer_hits + io.Rss.Counters.page_fetches)));
    metric "rss.measured_cost" "cost" (Rss.Counters.cost ~w:Ctx.default_w io);
    metric ~samples:(Dist.count t.Traced.session_reads) "session.exec_us" "us"
      (Dist.median t.Traced.session_reads);
    (let s = dml_us t Gen.Insert in metric ~samples:(Dist.count s) "session.dml_us.insert" "us" (Dist.median s));
    (let s = dml_us t Gen.Update in metric ~samples:(Dist.count s) "session.dml_us.update" "us" (Dist.median s));
    (let s = dml_us t Gen.Delete in metric ~samples:(Dist.count s) "session.dml_us.delete" "us" (Dist.median s));
    metric ~samples:dmls "session.dml_drift" "ratio" (dml_drift t);
    metric "rss.wal_bytes_per_write" "bytes" (Dist.ratio (f t.Traced.wal_bytes) (f dmls));
    metric "rss.wal_flushes_per_commit" "ratio" (Dist.ratio (f t.Traced.wal_flushes) (f t.Traced.commits));
    metric "engine.commits_per_flush" "ratio" (Dist.ratio (f t.Traced.grouped) (f t.Traced.gc_flushes));
    metric "rss.heap_pages" "pages" (f t.Traced.heap_pages);
    metric "rss.dead_version_ratio" "ratio" t.Traced.dead_ratio;
    metric "rss.btree_height" "levels" (f t.Traced.btree_height);
    metric ~samples:(Dist.count t.Traced.delete_fetches) "rss.delete_page_fetches" "count"
      (Dist.median t.Traced.delete_fetches);
    metric "gc.alloc_words_per_stmt" "words" (Dist.ratio t.Traced.alloc_words (f t.Traced.statements)) ]

(* The table-size, paper-unit and churn-history reports. *)
let reports (t : Traced.t) =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "# table sizes against --buffer-pages %d\n" Gen.buffer_pages;
  List.iter
    (fun (name, heap, leaves) ->
      pr "%-8s heap_pages=%d index_leaf_pages=%d share_of_buffer=%.2f\n" name heap leaves
        (float_of_int (heap + leaves) /. float_of_int Gen.buffer_pages))
    t.Traced.tables;
  if not (Queue.is_empty t.Traced.execs) then begin
    pr "# predicted vs measured cost (PAGE_FETCHES + W*RSI_CALLS) per shape\n";
    pr "%-12s %6s %14s %14s %10s %10s\n" "shape" "n" "pred_p50" "meas_p50" "qerr_p50" "qerr_p95";
    let shapes = Hashtbl.create 8 in
    Queue.iter (fun (e : Traced.exec) -> Hashtbl.replace shapes e.shape ()) t.Traced.execs;
    List.iter
      (fun shape ->
        let pred = Dist.samples () and meas = Dist.samples () and qe = Dist.samples () in
        Queue.iter
          (fun (e : Traced.exec) ->
            if e.shape = shape then begin
              Dist.push pred e.predicted;
              Dist.push meas e.measured;
              Dist.push qe (Dist.q_error e.predicted e.measured)
            end)
          t.Traced.execs;
        pr "%-12s %6d %14.1f %14.1f %10.2f %10.2f\n" shape (Dist.count pred)
          (Dist.median pred) (Dist.median meas) (Dist.median qe) (Dist.pct qe 0.95))
      (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) shapes []));
    pr "# optimize time per number of joined relations\n";
    for rels = 1 to 6 do
      let s = Dist.samples () in
      Queue.iter (fun (e : Traced.exec) -> if e.rels = rels then Dist.push s e.optimize_us) t.Traced.execs;
      if Dist.count s > 0 then
        pr "rels=%d n=%d optimize_p50_us=%.1f optimize_p95_us=%.1f\n" rels (Dist.count s)
          (Dist.median s) (Dist.pct s 0.95)
    done
  end;
  if not (Queue.is_empty t.Traced.dml) then begin
    pr "# churn history per tenth of the run\n";
    pr "%-6s %12s %10s %12s\n" "tenth" "dml_p50_us" "heap_pages" "dead_ratio";
    List.iteri
      (fun k (dml, pages, dead) -> pr "%-6d %12.1f %10d %12.4f\n" (k + 1) dml pages dead)
      (List.of_seq (Queue.to_seq t.Traced.tenths));
    pr "point DELETE page fetches p50 = %.0f (rsi p50 = %.0f) against btree_height + 1 = %d\n"
      (Dist.median t.Traced.delete_fetches) (Dist.median t.Traced.delete_rsi)
      (t.Traced.btree_height + 1)
  end;
  Buffer.contents b

(* Spans as JSON lines. *)
let write_trace path (t : Traced.t) =
  let oc = open_out_bin path in
  List.iter
    (fun (sp : Traced.span) ->
      Printf.fprintf oc "{\"layer\": %S, \"stmt\": %d, \"start_ns\": %d, \"dur_ns\": %d}\n"
        sp.layer sp.stmt sp.start_ns sp.dur_ns)
    (List.rev t.Traced.spans);
  close_out oc

let traced (w : Gen.workload) ~seed ~script ~sock =
  let n = trace_prefix w.Gen.name in
  let run, _, _ =
    wire_run w ~script ~sock ~reps:1 ~streams:(limit n (w.Gen.streams ())) ~deadline_s:None
  in
  let t = Traced.replay w (Gen.interleave w n) in
  print_string (reports t);
  write_trace (Printf.sprintf "%s/trace-%s-%d.jsonl" Wire.work_dir w.Gen.name seed) t;
  let integrity_ok =
    match t.Traced.integrity with
    | Ok () -> true
    | Error e -> Printf.eprintf "integrity check failed: %s\n%!" e; false
  in
  let wrong =
    run.Wire.wrong + t.Traced.wrong
    + (if run.Wire.held = [] then 0
       else compare_reference (List.rev run.Wire.held) t.Traced.outputs)
  in
  ( wrong = 0 && integrity_ok,
    run.Wire.attempted + t.Traced.statements,
    run.Wire.errors + t.Traced.errors,
    per_layer t run )

let usage () =
  prerr_endline
    "usage: main.exe --workload point_read|write_churn|analytic --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (Sys.file_exists Wire.server_exe) then begin
    prerr_endline ("perfbench: " ^ Wire.server_exe ^ " not built; run from the repository root");
    exit 2
  end;
  let w =
    match Gen.make ~seed:!seed ~seconds:!seconds !workload with
    | Some w -> w
    | None -> usage ()
  in
  (try Unix.mkdir Wire.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s/%s-%d-%d" Wire.work_dir w.Gen.name !seed (Unix.getpid ()) in
  let script = tag ^ ".sql" and sock = tag ^ ".sock" in
  write_file script w.Gen.seed_sql;
  let cleanup () =
    Wire.stop_all ();
    try Sys.remove script with Sys_error _ -> ()
  in
  at_exit cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let correct, attempted, failed, metrics =
    if !trace = 0 then end_to_end w ~seconds:!seconds ~script ~sock
    else traced w ~seed:!seed ~script ~sock
  in
  cleanup ();
  print_result ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)

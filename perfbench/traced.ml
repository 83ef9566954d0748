(* The traced run: the same generated stream replayed in-process, single
   threaded, against a Database loaded from the same seed script. A span is
   recorded around each call into a layer's public function, next to
   Rss.Counters deltas, so per-layer numbers come without changing the
   library. Spans stay in memory until the run ends. *)

type span = { layer : string; stmt : int; start_ns : int; dur_ns : int }

type exec = {
  shape : string;
  rels : int;
  predicted : float;  (** Optimizer.total_cost of the literal plan *)
  measured : float;  (** Rss.Counters.cost of running that plan *)
  optimize_us : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  outputs : (Gen.stmt * Rel.Tuple.t list) Queue.t;  (** [Reference] results *)
  mutable errors : int;
  mutable wrong : int;
  execs : exec Queue.t;
  mutable probes : int;
  mutable probe_hits : int;
  mutable rows_out : int;
  mutable reply_bytes : int;
  mutable replies : int;
  mutable alloc_words : float;
  mutable statements : int;
  io : Rss.Counters.t;
      (** each statement's first execution: the executor span for SELECTs,
          the session call for DML *)
  mutable cache_hits : int;  (** engine plan-cache hits over the replay *)
  mutable wal_bytes : int;
  mutable wal_flushes : int;
  mutable commits : int;
  mutable grouped : int;
  mutable gc_flushes : int;
  dml : (Gen.kind * float) Queue.t;  (** Session.exec µs, in stream order *)
  delete_fetches : Dist.samples;
  delete_rsi : Dist.samples;
  session_reads : Dist.samples;
  tenths : (float * int * float) Queue.t;
      (** churn history: DML median µs, heap pages, dead-version ratio *)
  mutable heap_pages : int;
  mutable dead_ratio : float;
  mutable btree_height : int;
  mutable tables : (string * int * int) list;
      (** per relation at the end: heap pages, index leaf pages *)
  mutable integrity : (unit, string) result;
}

let span_us t layer =
  let s = Dist.samples () in
  List.iter
    (fun sp -> if sp.layer = layer then Dist.push s (float_of_int sp.dur_ns *. 1e-3))
    t.spans;
  s

let heap_state cat =
  let pages = ref 0 and dead = ref 0 and visible = ref 0 in
  List.iter
    (fun (rel : Catalog.relation) ->
      pages := !pages + List.length (Rss.Segment.page_ids rel.Catalog.segment);
      List.iter
        (fun (_, _, _, xmax) -> if xmax = 0 then incr visible else incr dead)
        (Catalog.scan_versions rel))
    (Catalog.relations cat);
  (!pages, Dist.ratio (float_of_int !dead) (float_of_int !visible))

let max_btree_height cat =
  List.fold_left
    (fun acc rel ->
      List.fold_left
        (fun acc (ix : Catalog.index) -> max acc (Rss.Btree.height ix.Catalog.btree))
        acc (Catalog.indexes_on cat rel))
    0 (Catalog.relations cat)

(* The frames the server would send for this reply (Server.batch_rows rows
   per batch; prepared executions carry no row description). *)
let reply_frames (st : Gen.stmt) result =
  match result with
  | `Rows (out : Executor.output) ->
    let rec batches acc = function
      | [] -> List.rev acc
      | rows ->
        let rec take n acc = function
          | r :: rest when n > 0 -> take (n - 1) (r :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let b, rest = take 256 [] rows in
        batches (Protocol.Row_batch b :: acc) rest
    in
    let desc =
      match st.Gen.msg with
      | Protocol.Simple _ -> [ Protocol.Row_desc out.Executor.columns ]
      | _ -> []
    in
    desc @ batches [] out.Executor.rows
    @ [ Protocol.Complete (Printf.sprintf "SELECT %d" (List.length out.Executor.rows));
        Protocol.Ready ]
  | `Done tag -> [ Protocol.Complete tag; Protocol.Ready ]

(* [layers = false] runs only the session calls: the reference replay the
   wire run's analytic answers are compared with. *)
let replay ?(layers = true) (w : Gen.workload) stmts =
  let db = Database.create ~buffer_pages:Gen.buffer_pages () in
  ignore (Database.exec_script db w.Gen.seed_sql);
  let s = Database.session db in
  let eng = Database.engine db in
  let cat = Database.catalog db in
  let cnt = Session.session_counters s in
  let wal = Engine.wal eng in
  let prepared = List.map (fun (name, sql) -> (name, Session.prepare s sql)) w.Gen.prepared in
  let t =
    { spans = []; outputs = Queue.create (); errors = 0; wrong = 0;
      execs = Queue.create (); probes = 0; probe_hits = 0; rows_out = 0;
      reply_bytes = 0; replies = 0; alloc_words = 0.; statements = 0;
      io = Rss.Counters.create (); cache_hits = 0; wal_bytes = 0;
      wal_flushes = 0; commits = 0; grouped = 0; gc_flushes = 0;
      dml = Queue.create (); delete_fetches = Dist.samples ();
      delete_rsi = Dist.samples (); session_reads = Dist.samples ();
      tenths = Queue.create (); heap_pages = 0; dead_ratio = 0.;
      btree_height = 0; tables = []; integrity = Ok () }
  in
  (* [f]'s result and duration in µs; the span is kept when tracing *)
  let span layer idx f =
    let t0 = Dist.now_ns () in
    let r = f () in
    let dur = Dist.now_ns () - t0 in
    if layers then t.spans <- { layer; stmt = idx; start_ns = t0; dur_ns = dur } :: t.spans;
    (r, float_of_int dur *. 1e-3)
  in
  let cnt0 = Rss.Counters.snapshot cnt in
  let wal_bytes0 = Rss.Wal.byte_size wal and wal_flushes0 = Rss.Wal.flushes wal in
  let gc0 = Engine.group_commit_stats eng in
  let total = List.length stmts in
  let dml_in_tenth = Dist.samples () in
  let ctx = Session.ctx s in
  (* The literal statement taken through each layer by hand: resolve,
     optimize and run its plan, pairing the TABLE 2 prediction with the
     counters the run moved. The session call after it is the real path. *)
  let layer_pass idx (st : Gen.stmt) q =
    let block, _ = span "sql.resolve" idx (fun () -> Semant.resolve cat q) in
    let r, optimize_us = span "optimizer.optimize" idx (fun () -> Optimizer.optimize ctx block) in
    let predicted = Optimizer.total_cost ctx r in
    let before = Rss.Counters.snapshot cnt in
    ignore (span "executor.exec" idx (fun () -> Session.run_plan s r));
    let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot cnt) ~before in
    Rss.Counters.add d ~into:t.io;
    Queue.add
      { shape = st.Gen.shape; rels = st.Gen.rels; predicted;
        measured = Rss.Counters.cost ~w:ctx.Ctx.w d; optimize_us }
      t.execs
  in
  List.iteri
    (fun idx (st : Gen.stmt) ->
      if layers then begin
        let ty, payload = Protocol.encode_client st.Gen.msg in
        ignore (span "protocol.decode" idx (fun () -> Protocol.decode_client ty payload));
        match st.Gen.msg, st.Gen.kind with
        | Protocol.Simple sql, Gen.Read ->
          (match fst (span "sql.parse" idx (fun () -> Parser.parse_statement sql)) with
           | Ast.Select q ->
             ignore (span "sql.fingerprint" idx (fun () -> Normalize.fingerprint q));
             t.probes <- t.probes + 1;
             if Option.is_some
                  (fst (span "plan_cache.probe" idx (fun () -> Session.cached_plan s sql)))
             then t.probe_hits <- t.probe_hits + 1;
             layer_pass idx st q
           | _ -> ())
        | Protocol.Simple sql, _ ->
          ignore (span "sql.parse" idx (fun () -> Parser.parse_statement sql))
        | _, Gen.Read -> layer_pass idx st (Parser.parse_query st.Gen.sql)
        | _ -> ()
      end;
      let before = Rss.Counters.snapshot cnt in
      let alloc0 = Gc.minor_words () in
      let result, us =
        span "session.exec" idx (fun () ->
            match st.Gen.msg with
            | Protocol.Execute { name; params; _ } ->
              (try
                 Ok (`Rows
                       (Session.execute_prepared s (List.assoc name prepared)
                          (Option.value params ~default:[])))
               with Session.Error e -> Error e)
            | _ ->
              (match Session.exec s st.Gen.sql with
               | Session.Rows out -> Ok (`Rows out)
               | Session.Done tag | Session.Text tag -> Ok (`Done tag)
               | exception Session.Error e -> Error e))
      in
      t.alloc_words <- t.alloc_words +. (Gc.minor_words () -. alloc0);
      t.statements <- t.statements + 1;
      let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot cnt) ~before in
      (match st.Gen.kind with
       | Gen.Read -> Dist.push t.session_reads us
       | kind ->
         Rss.Counters.add d ~into:t.io;
         Queue.add (kind, us) t.dml;
         Dist.push dml_in_tenth us;
         if kind = Gen.Delete then begin
           Dist.push t.delete_fetches (float_of_int d.Rss.Counters.page_fetches);
           Dist.push t.delete_rsi (float_of_int d.Rss.Counters.rsi_calls)
         end);
      (match result with
       | Error e ->
         t.errors <- t.errors + 1;
         if t.errors <= 5 then Printf.eprintf "replay error: %s: %s\n%!" st.Gen.sql e
       | Ok r ->
         let rows, tag =
           match r with
           | `Rows out ->
             t.rows_out <- t.rows_out + List.length out.Executor.rows;
             (out.Executor.rows, "")
           | `Done tag -> ([], tag)
         in
         (match st.Gen.expect with
          | Gen.Reference -> Queue.add (st, rows) t.outputs
          | expect ->
            (match Gen.check expect ~rows ~tag with
             | None -> ()
             | Some why ->
               t.wrong <- t.wrong + 1;
               if t.wrong <= 5 then
                 Printf.eprintf "replay wrong answer: %s: %s\n%!" st.Gen.sql why));
         if layers then begin
           let frames = reply_frames st r in
           let bytes, _ =
             span "protocol.encode" idx (fun () ->
                 List.fold_left
                   (fun acc m -> acc + 5 + String.length (snd (Protocol.encode_server m)))
                   0 frames)
           in
           t.reply_bytes <- t.reply_bytes + bytes;
           t.replies <- t.replies + 1
         end);
      (* churn history: close a tenth of the stream *)
      if layers && ((idx + 1) * 10 / total) > (idx * 10 / total) then begin
        let pages, dead = heap_state cat in
        Queue.add (Dist.median dml_in_tenth, pages, dead) t.tenths;
        Dist.clear dml_in_tenth
      end)
    stmts;
  let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot cnt) ~before:cnt0 in
  t.cache_hits <- d.Rss.Counters.plan_cache_hits;
  t.wal_bytes <- Rss.Wal.byte_size wal - wal_bytes0;
  t.wal_flushes <- Rss.Wal.flushes wal - wal_flushes0;
  let gc1 = Engine.group_commit_stats eng in
  t.commits <- gc1.Engine.enqueued - gc0.Engine.enqueued;
  t.grouped <- gc1.Engine.grouped_commits - gc0.Engine.grouped_commits;
  t.gc_flushes <- gc1.Engine.flushes - gc0.Engine.flushes;
  if layers then begin
    let pages, dead = heap_state cat in
    t.heap_pages <- pages;
    t.dead_ratio <- dead;
    t.btree_height <- max_btree_height cat;
    t.tables <-
      List.map
        (fun (rel : Catalog.relation) ->
          ( rel.Catalog.rel_name,
            List.length (Rss.Segment.page_ids rel.Catalog.segment),
            List.fold_left
              (fun acc (ix : Catalog.index) -> acc + Rss.Btree.leaf_pages ix.Catalog.btree)
              0 (Catalog.indexes_on cat rel) ))
        (Catalog.relations cat);
  end;
  List.iter
    (fun (sql, expect) ->
      let rows = try (Session.query s sql).Executor.rows with Session.Error _ -> [] in
      match Gen.check expect ~rows ~tag:"" with
      | None -> ()
      | Some why ->
        t.wrong <- t.wrong + 1;
        Printf.eprintf "replay final check: %s: %s\n%!" sql why)
    w.Gen.final;
  if layers then t.integrity <- Session.check_integrity s;
  t

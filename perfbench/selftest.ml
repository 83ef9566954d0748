(* Determinism self-test: the traced replay, run twice at small scale with
   one seed, must repeat its counts exactly, and the churn must leave the
   heap and its indexes consistent. *)

let counts (t : Traced.t) =
  [ ("rsi_calls", t.Traced.io.Rss.Counters.rsi_calls);
    ("page_fetches", t.Traced.io.Rss.Counters.page_fetches);
    ("wal_bytes", t.Traced.wal_bytes);
    ("plan_cache_hits", t.Traced.cache_hits) ]

let replay name n =
  match Gen.make ~sc:Gen.small ~seed:7 ~seconds:1 name with
  | Some w -> Traced.replay w (Gen.interleave w n)
  | None -> failwith name

let () =
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; prerr_endline s) fmt in
  List.iter
    (fun (name, n) ->
      let a = replay name n and b = replay name n in
      List.iter2
        (fun (what, x) (_, y) ->
          if x <> y then fail "%s: %s differs between replays (%d vs %d)" name what x y)
        (counts a) (counts b);
      if a.Traced.errors > 0 || a.Traced.wrong > 0 then
        fail "%s: %d errors, %d wrong answers" name a.Traced.errors a.Traced.wrong;
      (match a.Traced.integrity with
       | Ok () -> ()
       | Error e -> fail "%s: integrity check failed: %s" name e);
      Printf.printf "%s: %s\n" name
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (counts a))))
    [ ("point_read", 200); ("write_churn", max_int); ("analytic", 30) ];
  if !failures > 0 then exit 1

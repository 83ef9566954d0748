(* Seeded workload generation: the seed script a server loads with -f, and
   the statement streams its closed-loop callers send. Everything is a
   function of the seed, so the wire run, the traced replay and the answer
   checks all see the same statements. *)

type kind = Read | Insert | Update | Delete

type expect =
  | Rows of Rel.Tuple.t list  (** exact result multiset *)
  | Affected of int  (** DML: rows inserted / updated / deleted *)
  | Reference  (** compared against the in-process replay of the same stream *)

type stmt = {
  sql : string;  (** literal text; what the traced replay parses *)
  msg : Protocol.client_msg;  (** what goes on the wire *)
  kind : kind;
  expect : expect;
  shape : string;  (** statement family, for the per-shape reports *)
  rels : int;  (** relations in the top block's FROM list *)
}

type scale = {
  kv_rows : int;
  dims : int;
  emps : int;
  depts : int;
  jobs : int;
  custs : int;
  orders : int;
  prods : int;
}

let full =
  { kv_rows = 20_000; dims = 64; emps = 20_000; depts = 100; jobs = 20;
    custs = 2_000; orders = 10_000; prods = 500 }

let small =
  { kv_rows = 1_000; dims = 16; emps = 1_000; depts = 20; jobs = 8;
    custs = 100; orders = 500; prods = 40 }

(* One buffer size for every workload: it holds KV with its index (about
   120 heap + 310 leaf pages at full scale) but not the analytic schema. *)
let buffer_pages = 512

type workload = {
  name : string;
  conns : int;
  seed_sql : string;
  prepared : (string * string) list;  (** Parse name, template *)
  timed : bool;
      (** true: callers run until the deadline; false: the streams are
          finite and every statement is measured *)
  streams : unit -> (unit -> stmt option) array;
      (** fresh per-connection generators; each call restarts the streams *)
  final : (string * expect) list;  (** checked after the measured window *)
}

let str s = Rel.Value.Str s
let int i = Rel.Value.Int i
let tuple = Rel.Tuple.make

(* --- seed scripts --------------------------------------------------------- *)

let add_inserts b table rows =
  let rec go = function
    | [] -> ()
    | rows ->
      Buffer.add_string b ("INSERT INTO " ^ table ^ " VALUES ");
      let rec chunk i = function
        | r :: rest when i < 200 ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_char b '(';
          Buffer.add_string b (String.concat ", " r);
          Buffer.add_char b ')';
          chunk (i + 1) rest
        | rest -> rest
      in
      let rest = chunk 0 rows in
      Buffer.add_string b ";\n";
      go rest
  in
  go rows

let q s = "'" ^ s ^ "'"
let i = string_of_int

(* --- KV: point_read and write_churn -------------------------------------- *)

let kv_value seed k = Printf.sprintf "v%06x" (Hashtbl.hash (seed, k) land 0xffffff)

(* DIM keys are spread over KV's key range; 7919 is coprime with both
   scales' row counts, so the keys are distinct. *)
let dim_key sc j = ((j * 7919) + 13) mod sc.kv_rows
let dim_name j = Printf.sprintf "d%02d" j

let kv_seed sc seed =
  let b = Buffer.create (sc.kv_rows * 20) in
  Buffer.add_string b
    "CREATE TABLE KV (K INT, V STRING);\n\
     CREATE TABLE DIM (DK INT, DNAME STRING);\n";
  add_inserts b "KV"
    (List.init sc.kv_rows (fun k -> [ i k; q (kv_value seed k) ]));
  add_inserts b "DIM"
    (List.init sc.dims (fun j -> [ i (dim_key sc j); q (dim_name j) ]));
  Buffer.add_string b
    "CREATE CLUSTERED INDEX KV_K ON KV (K);\n\
     CREATE INDEX DIM_DK ON DIM (DK);\n\
     UPDATE STATISTICS;\n";
  Buffer.contents b

let point_sql = "SELECT V FROM KV WHERE K = ?"
let join_sql = "SELECT V, DNAME FROM KV, DIM WHERE K = DK AND DK = ?"
let kv_prepared = [ ("pt", point_sql); ("jn", join_sql) ]

let literal template v =
  match String.index_opt template '?' with
  | Some p ->
    String.sub template 0 p ^ string_of_int v
    ^ String.sub template (p + 1) (String.length template - p - 1)
  | None -> template

(* A SELECT with one integer placeholder, sent either as prepared Execute or
   as Simple text with the literal substituted. *)
let select ~prepared ~name ~template ~shape ~rels v expect =
  let sql = literal template v in
  let msg =
    if prepared then Protocol.Execute { name; params = Some [ int v ]; fetch = 0 }
    else Protocol.Simple sql
  in
  { sql; msg; kind = Read; expect; shape; rels }

let point_read sc seed =
  let stream conn =
    let rng = Random.State.make [| seed; conn; 1 |] in
    let zipf = Workload.zipf_sampler rng ~n:sc.kv_rows ~s:0.9 in
    fun () ->
      let prepared = Random.State.bool rng in
      if Random.State.int rng 100 < 5 then begin
        let j = Random.State.int rng sc.dims in
        let dk = dim_key sc j in
        Some
          (select ~prepared ~name:"jn" ~template:join_sql ~shape:"kv_dim_join"
             ~rels:2 dk
             (Rows [ tuple [ str (kv_value seed dk); str (dim_name j) ] ]))
      end
      else begin
        (* spread the Zipf ranks over the key space so hot keys do not
           share leaves *)
        let k = zipf () * 7919 mod sc.kv_rows in
        Some
          (select ~prepared ~name:"pt" ~template:point_sql ~shape:"kv_point"
             ~rels:1 k
             (Rows [ tuple [ str (kv_value seed k) ] ]))
      end
  in
  { name = "point_read"; conns = 2; seed_sql = kv_seed sc seed;
    prepared = kv_prepared; timed = true;
    streams = (fun () -> Array.init 2 stream); final = [] }

(* Each connection owns [hot] keys above the seeded range; every cycle
   deletes the row it inserted, so KV's row count is back to the seeded
   count after every complete cycle. *)
let churn_hot = 32

let write_churn sc seed ~cycles =
  let stream conn =
    let rng = Random.State.make [| seed; conn; 2 |] in
    let pending = Queue.create () in
    let left = ref cycles in
    let dml kind sql n =
      { sql; msg = Protocol.Simple sql; kind; expect = Affected n;
        shape = "kv_dml"; rels = 1 }
    in
    fun () ->
      if Queue.is_empty pending && !left > 0 then begin
        decr left;
        let k = sc.kv_rows + (conn * 1000) + Random.State.int rng churn_hot in
        let u = Printf.sprintf "u%d" (Random.State.int rng 1_000_000) in
        Queue.add (dml Insert (Printf.sprintf "INSERT INTO KV VALUES (%d, 'w%d')" k k) 1) pending;
        Queue.add
          (dml Update (Printf.sprintf "UPDATE KV SET V = '%s' WHERE K = %d" u k) 1)
          pending;
        Queue.add
          (select ~prepared:true ~name:"pt" ~template:point_sql ~shape:"kv_point"
             ~rels:1 k (Rows [ tuple [ str u ] ]))
          pending;
        Queue.add (dml Delete (Printf.sprintf "DELETE FROM KV WHERE K = %d" k) 1) pending
      end;
      Queue.take_opt pending
  in
  { name = "write_churn"; conns = 2; seed_sql = kv_seed sc seed;
    prepared = [ ("pt", point_sql) ]; timed = false;
    streams = (fun () -> Array.init 2 stream);
    final = [ ("SELECT COUNT(*) FROM KV", Rows [ tuple [ int sc.kv_rows ] ]) ] }

(* --- analytic: EMP/DEPT/JOB plus a SALES schema --------------------------- *)

let locs = [| "DENVER"; "BOSTON"; "AUSTIN"; "SEATTLE"; "MIAMI"; "DALLAS"; "TAMPA"; "RENO" |]
let titles = [| "CLERK"; "TYPIST"; "SALES"; "MECHANIC"; "ANALYST" |]
let regions = [| "NORTH"; "SOUTH"; "EAST"; "WEST"; "CENTRAL" |]
let segs = [| "RETAIL"; "CORP"; "GOV" |]
let cats = [| "TOOLS"; "FOOD"; "TOYS"; "BOOKS"; "GARDEN"; "AUTO"; "HOME"; "SPORT" |]
let first_date = 20250000
let days = 360

let analytic_seed sc seed =
  let rng = Random.State.make [| seed; 3 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let b = Buffer.create (1 lsl 21) in
  Buffer.add_string b
    "CREATE TABLE DEPT (DNO INT, DNAME STRING, LOC STRING);\n\
     CREATE TABLE JOB (JOB INT, TITLE STRING);\n\
     CREATE TABLE EMP (ENO INT, NAME STRING, DNO INT, JOB INT, SAL INT);\n\
     CREATE TABLE CUST (CNO INT, REGION STRING, SEG STRING);\n\
     CREATE TABLE PROD (PNO INT, CAT STRING, PRICE INT);\n\
     CREATE TABLE ORDERS (ONO INT, CNO INT, ENO INT, ODATE INT);\n\
     CREATE TABLE ITEM (ONO INT, PNO INT, QTY INT, AMT INT);\n";
  add_inserts b "DEPT"
    (List.init sc.depts (fun d ->
         [ i d; q (Printf.sprintf "DEPT%03d" d); q (pick locs) ]));
  add_inserts b "JOB"
    (List.init sc.jobs (fun j ->
         [ i j; q (titles.(j mod Array.length titles) ^ string_of_int (j / Array.length titles)) ]));
  (* EMP goes in clustered (DNO) order *)
  let emps =
    List.init sc.emps (fun e ->
        (Random.State.int rng sc.depts, e, Random.State.int rng sc.jobs,
         8000 + Random.State.int rng 22000))
    |> List.sort compare
  in
  add_inserts b "EMP"
    (List.map
       (fun (d, e, j, s) -> [ i e; q (Printf.sprintf "E%05d" e); i d; i j; i s ])
       emps);
  add_inserts b "CUST"
    (List.init sc.custs (fun c -> [ i c; q (pick regions); q (pick segs) ]));
  add_inserts b "PROD"
    (List.init sc.prods (fun p -> [ i p; q (pick cats); i (100 + Random.State.int rng 900) ]));
  let date = Workload.zipf_sampler rng ~n:days ~s:0.6 in
  add_inserts b "ORDERS"
    (List.init sc.orders (fun o ->
         [ i o; i (Random.State.int rng sc.custs); i (Random.State.int rng sc.emps);
           i (first_date + days - 1 - date ()) ]));
  add_inserts b "ITEM"
    (List.concat
       (List.init sc.orders (fun o ->
            List.init (1 + Random.State.int rng 3) (fun _ ->
                let qty = 1 + Random.State.int rng 9 in
                [ i o; i (Random.State.int rng sc.prods); i qty;
                  i (qty * (100 + Random.State.int rng 900)) ]))));
  Buffer.add_string b
    "CREATE CLUSTERED INDEX DEPT_DNO ON DEPT (DNO);\n\
     CREATE CLUSTERED INDEX JOB_JOB ON JOB (JOB);\n\
     CREATE CLUSTERED INDEX EMP_DNO ON EMP (DNO);\n\
     CREATE INDEX EMP_ENO ON EMP (ENO);\n\
     CREATE INDEX EMP_JOB ON EMP (JOB);\n\
     CREATE CLUSTERED INDEX CUST_CNO ON CUST (CNO);\n\
     CREATE CLUSTERED INDEX PROD_PNO ON PROD (PNO);\n\
     CREATE CLUSTERED INDEX ORD_ONO ON ORDERS (ONO);\n\
     CREATE INDEX ORD_CNO ON ORDERS (CNO);\n\
     CREATE INDEX ORD_ENO ON ORDERS (ENO);\n\
     CREATE CLUSTERED INDEX ITEM_ONO ON ITEM (ONO);\n\
     CREATE INDEX ITEM_PNO ON ITEM (PNO);\n\
     UPDATE STATISTICS;\n";
  Buffer.contents b

(* The reporting family. Each template has structural choices (which
   optional predicates, which comparison, which aggregate, which ORDER BY).
   The structure comes from [shape_rng], which is the same for every seed,
   so every run carries the same mix of shapes and the seed varies only the
   literals, drawn from [rng].

   Every statement also names its last output column [R<i>], so no two
   statements share a plan-cache entry: ad-hoc reports are optimized fresh.
   The cache keeps the plan chosen for the first literals of a shape, and on
   this schema reusing it for other literals can run for minutes (a plan
   cached for [QTY < 1] is a nested loop of segment scans; see README.md). *)
let analytic_stmt sc ~shape_rng rng i =
  let s n = Random.State.int shape_rng n in
  let spick a = a.(s (Array.length a)) in
  let sopt p str = if s 100 < p then str else "" in
  let cmp () = spick [| ">"; "<"; ">="; "<=" |] in
  let r n = Random.State.int rng n in
  let pick a = a.(r (Array.length a)) in
  let sal () = string_of_int (8000 + r 22000) in
  let name = Printf.sprintf " AS R%d" i in
  let date_from () = first_date + days - 1 - r 60 - r 60 in
  (* each candidate residual is absent or present under one of four
     comparisons: five fingerprints per candidate *)
  let extra cands =
    String.concat ""
      (List.map
         (fun (col, lo, span) ->
           sopt 40 (Printf.sprintf " AND %s %s %d" col (cmp ()) (lo + r span)))
         cands)
  in
  let second = i / 6 mod 2 = 1 in
  let shape, rels, sql =
    match i mod 6 with
    | 0 ->
      ( "emp_dept", 2,
        Printf.sprintf "SELECT %s%s FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = '%s' \
                        AND SAL %s %s AND JOB = %d%s%s"
          (spick [| "NAME, DNAME"; "NAME, SAL, LOC"; "ENO, DNAME, SAL" |]) name
          (pick locs) (cmp ()) (sal ()) (r sc.jobs)
          (extra [ ("EMP.DNO", 0, sc.depts); ("ENO", 0, sc.emps) ])
          (sopt 50 (" ORDER BY " ^ spick [| "SAL DESC"; "EMP.DNO"; "SAL" |])) )
    | 1 ->
      ( "fig1", 3,
        Printf.sprintf "SELECT NAME, TITLE, SAL, DNAME%s FROM EMP, DEPT, JOB \
                        WHERE TITLE = '%s0' AND LOC = '%s' AND EMP.DNO = DEPT.DNO \
                        AND EMP.JOB = JOB.JOB%s%s"
          name (pick titles) (pick locs)
          (extra [ ("SAL", 8000, 22000); ("ENO", 0, sc.emps); ("EMP.DNO", 0, sc.depts) ])
          (sopt 50 (" ORDER BY " ^ spick [| "SAL"; "NAME"; "DNAME" |])) )
    | 2 when second ->
      ( "group_emp", 1,
        Printf.sprintf "SELECT DNO, COUNT(*), %s(SAL)%s FROM EMP WHERE %s%s GROUP BY DNO%s"
          (spick [| "AVG"; "MAX"; "MIN"; "SUM" |]) name
          (match s 3 with
           | 0 -> Printf.sprintf "JOB = %d" (r sc.jobs)
           | 1 -> Printf.sprintf "SAL %s %s AND JOB = %d" (cmp ()) (sal ()) (r sc.jobs)
           | _ ->
             let lo = r sc.depts in
             Printf.sprintf "DNO BETWEEN %d AND %d" lo (lo + 1 + r 5))
          (extra [ ("ENO", 0, sc.emps) ])
          (sopt 50 (" ORDER BY " ^ spick [| "DNO"; "DNO DESC" |])) )
    | 2 ->
      ( "group_loc", 2,
        Printf.sprintf "SELECT LOC, COUNT(*), %s(SAL)%s FROM EMP, DEPT \
                        WHERE EMP.DNO = DEPT.DNO AND JOB = %d%s GROUP BY LOC%s"
          (spick [| "AVG"; "MAX"; "SUM" |]) name (r sc.jobs)
          (extra [ ("SAL", 8000, 22000); ("ENO", 0, sc.emps); ("DEPT.DNO", 0, sc.depts) ])
          (sopt 50 (" ORDER BY " ^ spick [| "LOC"; "LOC DESC" |])) )
    | 3 ->
      let seg = sopt 50 (Printf.sprintf " AND SEG = '%s'" (pick segs)) in
      ( "sales4", 4,
        Printf.sprintf "SELECT REGION, %s%s FROM CUST, ORDERS, ITEM, PROD \
                        WHERE CUST.CNO = ORDERS.CNO AND ORDERS.ONO = ITEM.ONO \
                        AND ITEM.PNO = PROD.PNO AND CAT = '%s' AND ODATE %s %d%s%s \
                        GROUP BY REGION%s"
          (spick [| "SUM(AMT)"; "COUNT(*)"; "MAX(QTY)" |]) name (pick cats)
          (spick [| ">"; ">=" |]) (date_from ()) seg
          (extra [ ("QTY", 1, 9); ("PRICE", 100, 900); ("CUST.CNO", 0, sc.custs) ])
          (sopt 50 " ORDER BY REGION") )
    | 4 ->
      let with_prod = s 2 = 0 and with_cust = s 2 = 0 in
      ( "sales6", 4 + Bool.to_int with_prod + Bool.to_int with_cust,
        Printf.sprintf "SELECT DNAME, %s%s FROM DEPT, EMP, ORDERS, ITEM%s%s \
                        WHERE DEPT.DNO = EMP.DNO AND EMP.ENO = ORDERS.ENO \
                        AND ORDERS.ONO = ITEM.ONO AND LOC = '%s' AND ODATE %s %d%s%s%s \
                        GROUP BY DNAME%s"
          (spick [| "SUM(AMT)"; "COUNT(*)"; "AVG(QTY)" |]) name
          (if with_prod then ", PROD" else "")
          (if with_cust then ", CUST" else "")
          (pick locs) (spick [| ">"; ">=" |]) (date_from ())
          (if with_prod then
             Printf.sprintf " AND ITEM.PNO = PROD.PNO AND CAT = '%s'" (pick cats)
           else "")
          (if with_cust then
             Printf.sprintf " AND ORDERS.CNO = CUST.CNO AND REGION = '%s'" (pick regions)
           else "")
          (extra [ ("QTY", 1, 9); ("EMP.ENO", 0, sc.emps); ("SAL", 8000, 22000) ])
          (sopt 50 " ORDER BY DNAME") )
    | _ when second ->
      ( "corr_emp", 1,
        Printf.sprintf "SELECT ENO, NAME, SAL%s FROM EMP X WHERE DNO = %d%s AND SAL %s \
                        (SELECT %s(SAL) FROM EMP WHERE DNO = X.DNO%s)%s"
          name (r sc.depts)
          (extra [ ("X.ENO", 0, sc.emps); ("X.JOB", 0, sc.jobs) ])
          (spick [| ">"; "<" |]) (spick [| "AVG"; "MAX"; "MIN" |])
          (sopt 50 " AND JOB = X.JOB")
          (sopt 50 (" ORDER BY " ^ spick [| "SAL DESC"; "ENO" |])) )
    | _ ->
      ( "corr_orders", 1,
        Printf.sprintf "SELECT ONO, ODATE%s FROM ORDERS X WHERE CNO %s %d%s AND ODATE %s \
                        (SELECT AVG(ODATE) FROM ORDERS WHERE CNO = X.CNO)%s"
          name (spick [| "="; "<" |]) (r (max 1 (sc.custs / 50)))
          (extra [ ("X.ONO", 0, sc.orders); ("X.ENO", 0, sc.emps) ])
          (spick [| ">"; "<" |]) (sopt 50 " ORDER BY ODATE") )
  in
  { sql; msg = Protocol.Simple sql; kind = Read; expect = Reference; shape; rels }

let analytic sc seed =
  let stream conn =
    let shape_rng = Random.State.make [| conn; 5 |] in
    let rng = Random.State.make [| seed; conn; 4 |] in
    let i = ref (-1) in
    fun () ->
      incr i;
      Some (analytic_stmt sc ~shape_rng rng !i)
  in
  { name = "analytic"; conns = 1; seed_sql = analytic_seed sc seed;
    prepared = []; timed = true;
    streams = (fun () -> Array.init 1 stream); final = [] }

let names = [ "point_read"; "write_churn"; "analytic" ]

(* Churn runs a fixed number of statements so that parent and child carry
   the same history; the count scales with the run length. *)
let churn_cycles_per_second = 70

let make ?(sc = full) ~seed ~seconds name =
  match name with
  | "point_read" -> Some (point_read sc seed)
  | "write_churn" ->
    Some (write_churn sc seed ~cycles:(churn_cycles_per_second * seconds))
  | "analytic" -> Some (analytic sc seed)
  | _ -> None

(* The first [n] statements of every connection, interleaved round-robin:
   the single-threaded order the traced replay uses. *)
let interleave w n =
  let gens = w.streams () in
  let out = ref [] in
  let taken = Array.make (Array.length gens) 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun c g ->
        if taken.(c) < n then
          match g () with
          | Some s ->
            taken.(c) <- taken.(c) + 1;
            out := s :: !out;
            progress := true
          | None -> taken.(c) <- n)
      gens
  done;
  List.rev !out

(* --- answer checks -------------------------------------------------------- *)

let same_rows a b = List.sort compare a = List.sort compare b

(* [None] when a reply meets its expectation, [Some why] otherwise.
   [Reference] replies are held back and compared with the replay. *)
let check expect ~rows ~tag =
  match expect with
  | Rows want -> if same_rows want rows then None else Some "rows differ"
  | Affected n ->
    (match Scanf.sscanf_opt tag "%d" Fun.id with
     | Some m when m = n -> None
     | _ -> Some (Printf.sprintf "tag %S, expected %d rows" tag n))
  | Reference -> None

(* The wire run: a child systemr_server on a Unix socket, driven closed-loop
   from this one process. The server gets its own process because an OCaml 5
   minor collection stops every domain of a process: client-side GC would
   otherwise be billed to the server. The callers are multiplexed on one
   domain with select(2), each holding one request in flight. *)

let server_exe = "_build/default/bin/systemr_server.exe"
let work_dir = ".perfbench"

type server = { pid : int; sock : string; out : in_channel }

let live = ref []

let reap pid =
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let stop srv =
  live := List.filter (fun s -> s.pid <> srv.pid) !live;
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap srv.pid;
  close_in_noerr srv.out;
  try Unix.unlink srv.sock with Unix.Unix_error _ -> ()

let stop_all () = List.iter stop !live

let spawn ~script ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [| server_exe; "--socket"; sock; "--buffer-pages"; string_of_int Gen.buffer_pages;
       "--workers"; "2"; "-f"; script |]
  in
  let pid = Unix.create_process server_exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let srv = { pid; sock; out = Unix.in_channel_of_descr rd } in
  live := srv :: !live;
  (* the server prints "listening on ..." once the script has run *)
  match input_line srv.out with
  | line when String.starts_with ~prefix:"listening on" line -> srv
  | line ->
    stop srv;
    failwith ("server: unexpected output " ^ line)
  | exception End_of_file ->
    stop srv;
    failwith "server exited before listening"

(* Peak resident set of the server, from VmHWM in /proc/<pid>/status. *)
let peak_rss_mb srv =
  let ic = open_in (Printf.sprintf "/proc/%d/status" srv.pid) in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Spawn, wait until the seed script has run, connect every caller and
   Parse the prepared statements: the time until the first measured
   statement can be sent. *)
let setup (w : Gen.workload) ~script ~sock =
  let t0 = Dist.now_ns () in
  let srv = spawn ~script ~sock in
  let conns =
    Array.init w.conns (fun _ ->
        let c = Client.connect (Server.Unix_sock sock) in
        List.iter (fun (name, sql) -> ignore (Client.ok (Client.parse c ~name sql))) w.prepared;
        c)
  in
  (srv, conns, float_of_int (Dist.now_ns () - t0) *. 1e-9)

let close conns = Array.iter (fun c -> try Client.close c with _ -> ()) conns

type run = {
  all : Dist.samples;  (** latency in µs, send to Ready *)
  reads : Dist.samples;
  writes : Dist.samples;
  mutable attempted : int;
  mutable errors : int;
  mutable wrong : int;
  mutable elapsed_s : float;
  mutable held : (Gen.stmt * Rel.Tuple.t list) list;
      (** [Reference] replies, newest first *)
}

let note_wrong run what why =
  run.wrong <- run.wrong + 1;
  if run.wrong <= 5 then Printf.eprintf "wrong answer: %s: %s\n%!" what why

(* Closed loop: every caller sends its next statement as soon as its previous
   reply is in, until its stream ends or [deadline_ns] passes. *)
let drive conns (streams : (unit -> Gen.stmt option) array) ~deadline_ns =
  let run =
    { all = Dist.samples (); reads = Dist.samples (); writes = Dist.samples ();
      attempted = 0; errors = 0; wrong = 0; elapsed_s = 0.; held = [] }
  in
  let n = Array.length conns in
  let fds = Array.map (fun c -> Protocol.fd (Client.io c)) conns in
  let cur = Array.make n None and sent = Array.make n 0 in
  let send_next i =
    let next =
      match deadline_ns with
      | Some d when Dist.now_ns () >= d -> None
      | _ -> streams.(i) ()
    in
    cur.(i) <- next;
    match next with
    | Some st ->
      sent.(i) <- Dist.now_ns ();
      Client.send conns.(i) st.Gen.msg;
      Client.flush conns.(i);
      run.attempted <- run.attempted + 1
    | None -> ()
  in
  let t_start = Dist.now_ns () in
  let t_last = ref t_start in
  Array.iteri (fun i _ -> send_next i) conns;
  let on_reply i =
    let reply = Client.read_reply conns.(i) in
    let t = Dist.now_ns () in
    t_last := t;
    let st = Option.get cur.(i) in
    let us = float_of_int (t - sent.(i)) *. 1e-3 in
    Dist.push run.all us;
    Dist.push (if st.Gen.kind = Gen.Read then run.reads else run.writes) us;
    (match reply.Client.error with
     | Some e ->
       run.errors <- run.errors + 1;
       if run.errors <= 5 then Printf.eprintf "error reply: %s: %s\n%!" st.Gen.sql e
     | None ->
       (match st.Gen.expect with
        | Gen.Reference -> run.held <- (st, reply.Client.rows) :: run.held
        | expect ->
          (match Gen.check expect ~rows:reply.Client.rows ~tag:reply.Client.tag with
           | None -> ()
           | Some why -> note_wrong run st.Gen.sql why)));
    send_next i
  in
  let rec loop () =
    let waiting = List.filter (fun i -> Option.is_some cur.(i)) (List.init n Fun.id) in
    if waiting <> [] then begin
      let ready =
        match Unix.select (List.map (fun i -> fds.(i)) waiting) [] [] (-1.) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter (fun i -> if List.mem fds.(i) ready then on_reply i) waiting;
      loop ()
    end
  in
  loop ();
  run.elapsed_s <- float_of_int (!t_last - t_start) *. 1e-9;
  run

(* The statements checked once the measured window is over. *)
let final_checks run conn (w : Gen.workload) =
  List.iter
    (fun (sql, expect) ->
      let reply = Client.simple conn sql in
      match reply.Client.error with
      | Some e -> note_wrong run sql e
      | None ->
        (match Gen.check expect ~rows:reply.Client.rows ~tag:reply.Client.tag with
         | None -> ()
         | Some why -> note_wrong run sql why))
    w.final

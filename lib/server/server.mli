(** The wire-protocol server: one shared {!Engine.t}, one {!Session.t} per
    connection, speaking {!Protocol} over a Unix-domain or TCP socket.

    The accept loop runs on its own domain; connection handlers run on the
    shared {!Rss.Domain_pool} and occupy their worker for the connection's
    lifetime (which is why server sessions are [serial_only] — pool tasks
    must never submit exchange subtasks). Keep concurrent connections below
    the pool cap if the same process also runs parallel plans.

    Starting the server flips the engine into latched mode
    ({!Engine.set_latched}) for the listener's lifetime: mutating statements
    hold the engine latch exclusively, read-only statements hold it shared
    and read their MVCC snapshot without taking any lock, and blocked 2PL
    requests of writers wait on the engine condvar. A handler exiting for
    any reason — disconnect, protocol violation, handler failure, server
    stop — closes its session, aborting any in-flight transaction and
    releasing its locks. *)

type addr =
  | Unix_sock of string
  | Tcp of string * int

val addr_of_string : string -> addr
(** ["/path/to.sock"], ["host:port"] or [":port"] (loopback).
    @raise Invalid_argument on an unparsable port. *)

val addr_to_string : addr -> string

type t

val start : ?workers:int -> engine:Engine.t -> addr -> t
(** Bind, listen and spawn the accept domain. [workers] (default 4) grows
    the domain pool serving connections. [Tcp (_, 0)] binds an ephemeral
    port; read it back with {!addr}. *)

val addr : t -> addr
(** The resolved address (ephemeral TCP port filled in). *)

val engine : t -> Engine.t

val handler_failures : t -> int
(** Connection handlers that ended in an unexpected exception (anything
    but a statement error, a disconnect or a protocol violation). Each one
    is also logged to stderr with [Printexc.to_string]. *)

val handlers : t -> int
(** Accepted connections whose handler has not finished yet. A finished
    connection leaves no trace in the server. *)

val stop : t -> unit
(** Close the listener, disconnect every client (their sessions roll back
    and release locks), wait for every handler to finish, unlatch the
    engine. Idempotent. *)

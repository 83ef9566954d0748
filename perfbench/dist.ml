(* Clock, growable sample buffers and order statistics. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let count s = s.len
let clear s = s.len <- 0

(* Nearest-rank percentile; 0 when empty. *)
let pct s p =
  let a = Array.sub s.data 0 s.len in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median s = pct s 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* q-error of a prediction against a measurement, both shifted by one so a
   zero on either side stays finite. *)
let q_error pred meas =
  let p = Float.max pred 0. +. 1. and m = Float.max meas 0. +. 1. in
  Float.max (p /. m) (m /. p)

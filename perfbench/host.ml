(* Host-speed normalization of measured times.

   On the shared two-CPU host this benchmark was built on, CPU speed
   switches between a fast and a slow state (about 1.7x apart) every ten
   to thirty seconds.  Raw round times then spread 40% between rounds, and
   whole runs of the same seed differed by 25%.  A fixed probe of stdlib
   work (hashing, float arrays, allocation and sorting; no repository code)
   slows down with the host: over 111 rounds, its time and the round time
   correlated at 0.91, and their ratio spread 7.5% where the round time
   spread 40%.

   Every round therefore runs the probe before and after it, and each time
   measured in the round is scaled by [nominal / probe time]: seconds at the
   host speed where the probe takes [nominal].  A code change does not
   move the probe, so it moves the normalized times as it moves the raw
   ones.  Raw values are printed beside them. *)

(* The probe's time in the host's fast state, where it was calibrated. *)
let nominal = 0.0125

let probe () : float =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 30_000 do
    Hashtbl.replace h ((i * 7919) land 65535) (float_of_int i)
  done;
  let a = Array.init 20_000 float_of_int in
  let s = ref 0.0 in
  for _ = 1 to 20 do
    Array.iteri (fun i x -> s := !s +. (x *. a.(i * 31 mod 20_000))) a
  done;
  let l = List.sort (fun x y -> compare (y land 1023) (x land 1023)) (List.init 20_000 Fun.id) in
  ignore (Sys.opaque_identity (!s, l, Hashtbl.length h));
  Unix.gettimeofday () -. t0

(* Runs [f] between two probes; returns its result and the factor that
   scales times measured during it to nominal host speed. *)
let around (f : unit -> 'a) : 'a * float =
  let c0 = probe () in
  let v = f () in
  let c1 = probe () in
  (v, nominal /. ((c0 +. c1) /. 2.0))

(* Box-speed reference: a fixed piece of plain OCaml work, timed next
   to every operation, that uses no IRIS code.

   On a shared host the memory system's speed drifts by tens of
   percent over minutes (other tenants' cache and bandwidth use),
   while pure integer work stays within a few percent.  The kernel
   mixes what the workloads stress — minor-heap allocation, random
   access over 8 MB, and 128 KB block copies — and avoids the major
   heap, so its time does not depend on the workload's live heap.
   [factor] is the kernel's time against [nominal_s]: above 1 the box
   is running slow.  A host time divided by the factor is that time
   scaled to a box where the kernel takes [nominal_s]. *)

let nominal_s = 0.010

let table = Array.make (1 lsl 20) 1
let src = Bytes.make (128 * 1024) 'r'
let dst = Bytes.create (128 * 1024)

let minor_churn () =
  let acc = ref 0 in
  for i = 1 to 40_000 do
    acc := !acc + List.length (List.init 16 (fun j -> (i, j)))
  done;
  ignore (Sys.opaque_identity !acc)

let random_access () =
  let x = ref 12345 and mask = Array.length table - 1 in
  for _ = 1 to 1_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3FFF_FFFF;
    let j = !x land mask in
    Array.unsafe_set table j (Array.unsafe_get table j + 1)
  done

let block_copy () =
  for _ = 1 to 400 do Bytes.blit src 0 dst 0 (Bytes.length src) done

let kernel_s () =
  let t0 = Tracer.now_ns () in
  minor_churn ();
  random_access ();
  block_copy ();
  Tracer.seconds_since t0

(* Kernel time over [nominal_s], the faster of two back-to-back runs
   so that a single preemption does not count as a slow box.  It runs
   on one domain: the same kernel on two domains at once took 5–7
   times as long on a 2-vCPU box, so it measures cross-domain
   contention rather than the box. *)
let factor () =
  let a = kernel_s () in
  Float.min a (kernel_s ()) /. nominal_s

(* The factor for a span of work between two measurements. *)
let between a b = sqrt (a *. b)

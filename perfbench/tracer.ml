(* In-memory span tracer for the traced run.

   Spans are opened and closed by the benchmark's own code around its
   calls into the IRIS libraries.  Each closed span adds its duration
   to its name's totals and duration samples, and its self time (the
   duration minus what its direct children covered) to that name's
   self total.  A name's layer is its first dot-separated component
   ("core.replay.submit" -> "core"), so per-layer self time is a sum
   over names.  The first [max_spans] span records (name, start, end,
   parent, op id) are kept for export; the totals and samples cover
   every span.  With tracing off, [enter]/[leave] cost one branch. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

let on = ref false

type stat = {
  name : string;
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable samples : float array;  (* durations, ns *)
  mutable n_samples : int;
}

let max_samples = 1_000_000

let registry : (string, stat) Hashtbl.t = Hashtbl.create 64

(* Resolve a name once; the handle makes [enter] lookup-free. *)
let stat name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
      let s =
        { name; count = 0; total_ns = 0; self_ns = 0;
          samples = Array.make 256 0.0; n_samples = 0 }
      in
      Hashtbl.replace registry name s;
      s

let add_sample s v =
  if s.n_samples < max_samples then begin
    if s.n_samples = Array.length s.samples then begin
      let a = Array.make (2 * s.n_samples) 0.0 in
      Array.blit s.samples 0 a 0 s.n_samples;
      s.samples <- a
    end;
    s.samples.(s.n_samples) <- v;
    s.n_samples <- s.n_samples + 1
  end

(* --- open-span stack and exported records --- *)

let max_depth = 64
let dummy =
  { name = "bench.root"; count = 0; total_ns = 0; self_ns = 0;
    samples = [||]; n_samples = 0 }
let stk_stat = Array.make max_depth dummy
let stk_start = Array.make max_depth 0
let stk_child = Array.make max_depth 0
let stk_rec = Array.make max_depth (-1)
let depth = ref 0

let max_spans = 20_000
let sp_name = Array.make max_spans ""
let sp_start = Array.make max_spans 0
let sp_end = Array.make max_spans 0
let sp_parent = Array.make max_spans (-1)
let sp_op = Array.make max_spans 0
let n_spans = ref 0
let dropped = ref 0

(* Spans of one timed operation share its id. *)
let op_id = ref 0

let enter s =
  if !on then begin
    let d = !depth in
    stk_stat.(d) <- s;
    stk_child.(d) <- 0;
    let r = !n_spans in
    if r < max_spans then begin
      sp_name.(r) <- s.name;
      sp_parent.(r) <- (if d > 0 then stk_rec.(d - 1) else -1);
      sp_op.(r) <- !op_id;
      stk_rec.(d) <- r;
      n_spans := r + 1
    end
    else begin
      stk_rec.(d) <- -1;
      incr dropped
    end;
    depth := d + 1;
    stk_start.(d) <- now_ns ()
  end

let leave () =
  if !on then begin
    let t1 = now_ns () in
    let d = !depth - 1 in
    depth := d;
    let dur = t1 - stk_start.(d) in
    let s = stk_stat.(d) in
    s.count <- s.count + 1;
    s.total_ns <- s.total_ns + dur;
    s.self_ns <- s.self_ns + dur - stk_child.(d);
    add_sample s (float_of_int dur);
    if d > 0 then stk_child.(d - 1) <- stk_child.(d - 1) + dur;
    let r = stk_rec.(d) in
    if r >= 0 then begin
      sp_start.(r) <- stk_start.(d);
      sp_end.(r) <- t1
    end
  end

(* Record a duration timed by hand (a split call, or a per-call loop)
   as a childless, unexported span under the innermost open span. *)
let record s dur_ns =
  if !on then begin
    s.count <- s.count + 1;
    s.total_ns <- s.total_ns + dur_ns;
    s.self_ns <- s.self_ns + dur_ns;
    add_sample s (float_of_int dur_ns);
    let d = !depth - 1 in
    if d >= 0 then stk_child.(d) <- stk_child.(d) + dur_ns
  end

(* A derived per-operation figure (e.g. a drain's time per case): a
   sample under [s] that adds no time to any total. *)
let sample s v =
  if !on then begin
    s.count <- s.count + 1;
    add_sample s v
  end

let span s f =
  enter s;
  match f () with
  | v -> leave (); v
  | exception e -> leave (); raise e

(* --- readout --- *)

let find name = Hashtbl.find_opt registry name

(* Percentile [p] of a name's durations, in microseconds. *)
let pct_us name p =
  match find name with
  | Some s when s.n_samples > 0 ->
      Iris_util.Stats.percentile (Array.sub s.samples 0 s.n_samples) p /. 1e3
  | _ -> nan

let count name = match find name with Some s -> s.count | None -> 0

let total_s name =
  match find name with Some s -> float_of_int s.total_ns *. 1e-9 | None -> 0.0

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer, as a share (%) of all traced time. *)
let layer_self_shares () =
  let tbl = Hashtbl.create 16 in
  let all = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      let l = layer_of s.name in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (prev + s.self_ns);
      all := !all + s.self_ns)
    registry;
  fun layer ->
    match Hashtbl.find_opt tbl layer with
    | Some ns when !all > 0 -> 100.0 *. float_of_int ns /. float_of_int !all
    | _ -> 0.0

(* Chrome trace-event JSON ("X" events, microseconds), loadable in
   chrome://tracing or Perfetto. *)
let write_chrome ~path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let t0 = if !n_spans > 0 then sp_start.(0) else 0 in
  for r = 0 to !n_spans - 1 do
    if r > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d}}"
      sp_name.(r)
      (float_of_int (sp_start.(r) - t0) /. 1e3)
      (float_of_int (sp_end.(r) - sp_start.(r)) /. 1e3)
      r sp_parent.(r) sp_op.(r)
  done;
  Printf.fprintf oc "\n],\"otherData\":{\"spans_kept\":%d,\"spans_dropped\":%d}}\n"
    !n_spans !dropped;
  close_out oc

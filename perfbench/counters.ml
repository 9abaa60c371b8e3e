(* Named counts accumulated by the passes (exits, seeds, cases, words,
   restored state), read back into per-layer ratios at the end.  They
   only count in a traced run. *)

let enabled = ref false

let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 32

let cell name =
  match Hashtbl.find_opt tbl name with
  | Some r -> r
  | None ->
      let r = ref 0.0 in
      Hashtbl.replace tbl name r;
      r

let addf name v = if !enabled then let r = cell name in r := !r +. v
let add name n = addf name (float_of_int n)
let setf name v = if !enabled then cell name := v
let set name n = setf name (float_of_int n)
let get name = match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0.0

(* [num / den], or nan when nothing was counted. *)
let ratio num den = let d = get den in if d = 0.0 then nan else get num /. d

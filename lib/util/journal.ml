(* Invariant: [marks.(k)] is the depth of the innermost open epoch
   that saved key [k], or 0 when none has.  Each stack entry keeps the
   mark it displaced ([prevs]), so undoing or folding an entry puts
   the key's mark back without searching the outer epochs. *)
type ('v, 's) t = {
  name : string;
  mutable depth : int;
  mutable marks : int array;  (* by key; grown to the largest key noted *)
  mutable keys : int array;   (* dirty stack, oldest first *)
  mutable olds : 'v array;    (* pre-image per stack entry *)
  mutable prevs : int array;  (* mark displaced per stack entry *)
  mutable len : int;
  mutable starts : int array;  (* by depth: stack length at opening *)
  mutable scalars : 's array;  (* by depth *)
}

let create ~name =
  { name; depth = 0; marks = [||]; keys = [||]; olds = [||]; prevs = [||];
    len = 0; starts = [||]; scalars = [||] }

let depth t = t.depth

(* With no epoch open every mark is 0, so nothing needs saving; a key
   past the end of [marks] has never been noted. *)
let noted t k =
  t.depth = 0 || (k < Array.length t.marks && t.marks.(k) = t.depth)

let grown a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let note t k v =
  if k >= Array.length t.marks then t.marks <- grown t.marks (max 64 (k + 1)) 0;
  let i = t.len in
  if i = Array.length t.keys then begin
    t.keys <- grown t.keys 16 0;
    t.olds <- grown t.olds 16 v;
    t.prevs <- grown t.prevs 16 0
  end;
  t.keys.(i) <- k;
  t.olds.(i) <- v;
  t.prevs.(i) <- t.marks.(k);
  t.marks.(k) <- t.depth;
  t.len <- i + 1

let checkpoint t s =
  let d = t.depth + 1 in
  if d >= Array.length t.starts then begin
    t.starts <- grown t.starts 8 0;
    t.scalars <- grown t.scalars 8 s
  end;
  t.starts.(d) <- t.len;
  t.scalars.(d) <- s;
  t.depth <- d;
  d

let rewind t d ~restore =
  if d <= 0 || d > t.depth then invalid_arg (t.name ^ ".rewind: stale checkpoint");
  let base = t.starts.(d) in
  for i = t.len - 1 downto base do
    let k = t.keys.(i) in
    restore k t.olds.(i);
    t.marks.(k) <- t.prevs.(i)
  done;
  let restored = t.len - base in
  t.len <- base;
  t.depth <- d;
  restored

let scalar t d = t.scalars.(d)

(* A key the parent never saved held the same value at both openings,
   so the child's pre-image is the parent's too; a key it did save
   keeps the parent's older pre-image. *)
let commit t d =
  if d = 0 || d <> t.depth then
    invalid_arg (t.name ^ ".commit: not the innermost checkpoint");
  let parent = d - 1 in
  let w = ref t.starts.(d) in
  for i = t.starts.(d) to t.len - 1 do
    let k = t.keys.(i) in
    t.marks.(k) <- parent;
    if t.prevs.(i) <> parent then begin
      t.keys.(!w) <- k;
      t.olds.(!w) <- t.olds.(i);
      t.prevs.(!w) <- t.prevs.(i);
      incr w
    end
  done;
  t.len <- !w;
  t.depth <- parent

let reset t =
  for i = 0 to t.len - 1 do
    t.marks.(t.keys.(i)) <- 0
  done;
  t.len <- 0;
  t.depth <- 0

let dirty t = if t.depth = 0 then 0 else t.len - t.starts.(t.depth)

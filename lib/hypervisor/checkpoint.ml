(* Mark-based nested checkpoint manager over Domain's COW machinery.

   Marks form a stack: [push] opens a new epoch, [rewind] unwinds to
   any live mark (dropping marks opened after it, keeping the target
   live so it can be rewound to again), [pop] closes the innermost
   mark without restoring.  This is what lets Guided rewind to S_R
   between cases — or to a mid-case mark — without replaying the
   recorded prefix. *)

type mark = {
  m_id : int;
  m_cp : Domain.checkpoint;
}

type t = {
  dom : Domain.t;
  mutable stack : mark list;  (* innermost first *)
  mutable next_id : int;
}

let start dom = { dom; stack = []; next_id = 0 }

let domain t = t.dom

let depth t = List.length t.stack

let push t =
  let m = { m_id = t.next_id; m_cp = Domain.checkpoint t.dom } in
  t.next_id <- t.next_id + 1;
  t.stack <- m :: t.stack;
  m

(* One domain rewind unwinds every epoch opened after [m] as well, so
   the marks above it just drop off the stack. *)
let rewind t m =
  let rec unwind = function
    | [] -> invalid_arg "Checkpoint.rewind: mark not live"
    | m' :: _ as live when m'.m_id = m.m_id ->
        let rs = Domain.rewind t.dom m.m_cp in
        t.stack <- live;
        rs
    | _ :: rest -> unwind rest
  in
  unwind t.stack

let pop t m =
  match t.stack with
  | m' :: rest when m'.m_id = m.m_id ->
      Domain.release t.dom m'.m_cp;
      t.stack <- rest
  | _ -> invalid_arg "Checkpoint.pop: not the innermost mark"

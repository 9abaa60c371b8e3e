type launch_state = Clear | Active_current_clear | Active_current_launched

module J = Iris_util.Journal

type t = {
  values : int64 array; (* indexed by Field.compact *)
  mutable launch : launch_state;
  journal : (int64, launch_state) J.t;
      (* compact index -> value before the epoch's first write; the
         epoch scalar is the launch state at its opening *)
}

let fresh_journal () = J.create ~name:"Vmcs"

let revision_id = 0x00DE5E27L

let create () =
  { values = Array.make Field.count 0L; launch = Clear;
    journal = fresh_journal () }

let state t = t.launch

let vmclear t = t.launch <- Clear

let set_active t =
  match t.launch with
  | Clear -> t.launch <- Active_current_clear
  | Active_current_clear | Active_current_launched -> ()

let mark_launched t = t.launch <- Active_current_launched

let is_launched t = t.launch = Active_current_launched

type access_error =
  | Unsupported_field of int
  | Readonly_field of Field.t

let read t f = t.values.(Field.compact f)

let journal_write t idx =
  if not (J.noted t.journal idx) then J.note t.journal idx t.values.(idx)

let write t f v =
  if Field.readonly f then Error (Readonly_field f)
  else begin
    let idx = Field.compact f in
    journal_write t idx;
    t.values.(idx) <- Field.truncate f v;
    Ok ()
  end

let write_exit_info t f v =
  (* Processor-internal writes touch the exit-info area, the guest
     area (state save), and entry controls (clearing the event-
     injection valid bit); never the host area. *)
  assert (Field.area f <> Field.Host);
  let idx = Field.compact f in
  journal_write t idx;
  t.values.(idx) <- Field.truncate f v

let read_by_encoding t enc =
  match Field.of_encoding16 enc with
  | None -> Error (Unsupported_field enc)
  | Some f -> Ok (read t f)

let write_by_encoding t enc v =
  match Field.of_encoding16 enc with
  | None -> Error (Unsupported_field enc)
  | Some f -> write t f v

let copy t =
  { values = Array.copy t.values; launch = t.launch;
    journal = fresh_journal () }

let restore_from t ~src =
  Array.blit src.values 0 t.values 0 Field.count;
  t.launch <- src.launch;
  (* Full restore: any outstanding checkpoints are meaningless now. *)
  J.reset t.journal

(* --- incremental (copy-on-write) checkpoints --- *)

type checkpoint = int

let checkpoint t = J.checkpoint t.journal t.launch

let rewind t cp =
  let restored =
    J.rewind t.journal cp ~restore:(fun idx v -> t.values.(idx) <- v)
  in
  t.launch <- J.scalar t.journal cp;
  restored

let commit t cp = J.commit t.journal cp

let equal_area a b area =
  List.for_all
    (fun f -> read a f = read b f)
    (Field.in_area area)

let nonzero_fields t =
  Array.to_list Field.all
  |> List.filter_map (fun f ->
         let v = read t f in
         if v <> 0L then Some (f, v) else None)

let pp fmt t =
  let st =
    match t.launch with
    | Clear -> "clear"
    | Active_current_clear -> "active-current-clear"
    | Active_current_launched -> "active-current-launched"
  in
  Format.fprintf fmt "@[<v>VMCS (%s)@ " st;
  List.iter
    (fun (f, v) -> Format.fprintf fmt "%s = 0x%Lx@ " (Field.name f) v)
    (nonzero_fields t);
  Format.fprintf fmt "@]"

(** Nested undo log over an int-keyed store.

    The copy-on-write checkpoint engine behind guest memory (pfn →
    page pre-image), the EPT (pfn → override pre-image) and the VMCS
    and VMCB (compact field index → value).  A checkpoint opens an
    epoch; the first write to each key inside an epoch saves the
    key's prior value, so rewinding restores exactly the keys the
    epoch dirtied and nothing else.

    Epochs nest.  They are numbered by depth (1 = outermost), and the
    depth is the checkpoint handle the stores hand out.  Every saved
    value lives on one dirty stack shared by all epochs; an epoch is
    the stack suffix past its opening length, so opening, rewinding
    and committing allocate nothing once the stack has grown to its
    working size.

    The per-write probe ({!noted}) is one array load: each key
    remembers the depth of the innermost live epoch that saved it.
    The store writes its own key space and passes the pre-image to
    {!note} only when {!noted} says the epoch has not seen the key.
    The marks cost one word per key up to the largest key noted (the
    array doubles as it grows); pre-images cost a stack slot only for
    keys actually written. *)

type ('v, 's) t
(** A journal saving pre-images of type ['v], plus one scalar of type
    ['s] per epoch (state that is not keyed, such as a launch state or
    a list head, captured whole when the epoch opens). *)

val create : name:string -> ('v, 's) t
(** An empty journal (no open epoch).  [name] prefixes the
    [Invalid_argument] messages, e.g. ["Gmem.rewind: stale checkpoint"]. *)

val depth : (_, _) t -> int
(** Number of open epochs. *)

val noted : (_, _) t -> int -> bool
(** [true] when [key] needs no saving: no epoch is open, or the
    innermost epoch already holds its pre-image.  Keys are [>= 0]. *)

val note : ('v, _) t -> int -> 'v -> unit
(** Save [key]'s pre-image in the innermost epoch.  Call only when
    {!noted} is [false], before the store overwrites the key. *)

val checkpoint : (_, 's) t -> 's -> int
(** Open an epoch with scalar [s]; returns its depth. *)

val rewind : ('v, 's) t -> int -> restore:(int -> 'v -> unit) -> int
(** [rewind t d ~restore] undoes every write made since epoch [d]
    opened, epochs nested inside it included: it calls [restore key
    pre_image] newest first, closes the inner epochs and leaves [d]
    open and empty, so the caller can rewind to it again.  Returns the
    number of keys restored.  The caller restores the scalar from
    {!scalar}.  Raises [Invalid_argument "<name>.rewind: stale
    checkpoint"] unless [d] is open. *)

val scalar : (_, 's) t -> int -> 's
(** The scalar epoch [d] was opened with. *)

val commit : (_, _) t -> int -> unit
(** Close the innermost epoch [d] without restoring.  Its pre-images
    fold into the parent epoch, except for keys the parent already
    saved (the parent's older pre-image wins), so outer rewinds stay
    exact.  Raises [Invalid_argument "<name>.commit: not the innermost
    checkpoint"] unless [d] is the innermost open epoch. *)

val reset : (_, _) t -> unit
(** Close every epoch without restoring: what a full restore does,
    since the saved pre-images no longer describe the store. *)

val dirty : (_, _) t -> int
(** Keys saved in the innermost open epoch (0 when none is open). *)

(** Lowering stencils to kernel plans and binding plans to grids.

    [lower] turns a [Spec.t] into a layout-independent {!Plan.t}
    (constant folding, FMA-chain detection, postfix fallback — all
    value-preserving down to the bit for the engine's finite data).
    [bind] specialises a plan to concrete grids: per-access row-base
    tables and last-dimension offset tables, so the engine's inner loop
    runs without per-point closure dispatch.

    A postfix body is numbered into a {e tape} of 2-D shift classes at
    bind time. A shift is a (row, lane) pair: the row is dimension
    [rank - 2] (always 0 at rank 1), the lane the last dimension. A
    load's class is its field and its offsets other than the last two,
    which are its shift. An operator node's class is its operator, its
    operands' classes and their shifts relative to the componentwise
    minimum, which becomes the node's own shift. Constants are keyed by
    bit pattern and have no shift. So the subterms that stage fusion
    substitutes at offsets along the rows and lanes — [ulap(y-1,x)],
    [ulap(y,x-1)], [ulap(y,x)] and [ulap(y,x+1)] in a fused hdiff stage —
    are one class. Matching is structural only (nothing is commuted,
    reassociated or simplified), every class runs in the tree's own
    operation order, and results stay bit-identical to the tree.

    Each class keeps one line buffer per row of its row hull, in a ring
    (see {!store_row}). When a row continues the previous one — the
    next row along dimension [rank - 2] of the same segment — the rings
    rotate and every class computes only its newest row, so a row of a
    class is computed once however many rows read it: the paper's
    layer condition applied to the interpreter. Anything else restarts
    the rings. A [bound] is immutable and can be shared across pool
    slices; each slice allocates its own {!driver} for mutable
    scratch. *)

val lower : Spec.t -> Plan.t
(** Lower a spec (resolved or not — unresolved coefficients become
    {!Plan.Sym} instructions, refused only at {!bind} time). Never
    raises on a validated spec. *)

val fingerprint : Spec.t -> string
(** [(lower spec).fingerprint] — the stable content-addressed kernel
    digest (spec name excluded) used by the ECM cache, tuner
    checkpoints and Offsite memoization. *)

exception Unresolved_coefficient of string
(** Raised by {!bind} on a plan that still holds a named coefficient
    (a {!Plan.Sym} instruction). *)

val check :
  Plan.t -> inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t -> unit
(** Structural validation: input count equals [n_fields], every grid
    (and the output) has the plan's rank, and each input's halo covers
    the accesses to it. Raises [Invalid_argument] with a ["Lower: ..."]
    message. *)

type bound
(** A plan specialised to concrete grids: precomputed flat row bases,
    last-dimension offset tables and raw storage handles. Immutable. *)

val bind :
  Plan.t -> inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t -> bound
(** {!check}, refuse unresolved plans ({!Unresolved_coefficient}),
    then precompute the addressing tables and build the tape of a
    postfix body. A malformed postfix body (stack underflow, a push past
    its declared depth, a slot outside the access table, or anything
    but exactly one value left) raises [Invalid_argument] with a
    ["Lower: ..."] message. So does a load class whose row hull or
    lane hull of needed shifts (see {!store_row}) leaves the min/max
    offsets its field carries in the access table along that dimension
    (among the entries of the class) — the proof that the tape's
    unchecked reads stay inside the bounding box of the expression's
    own read set, which {!check} and the schedule gate prove in bounds
    one dimension at a time. *)

val plan_of : bound -> Plan.t

(** {1 The tape}

    Exposed so the native backend ({!Codegen}) emits from the same
    lowering the interpreter runs, and the YS6xx validator can replay
    it. Read-only outside this module. *)

val strip : int
(** Points per strip: 128. *)

type op = Neg | Add | Sub | Mul | Div | Min | Max | Sel

type node = {
  op : op;
  dst : int;  (** the node's class *)
  span : int;  (** lane hull width [hi - lo] of [dst] *)
  x : int;
  xr : int;
  xo : int;
  y : int;
  yr : int;
  yo : int;
  z : int;
  zr : int;
  zo : int;
}
(** One operator class: buffer [j], lane [k] of [dst] is [op] of
    buffers [j + xr], [j + yr], [j + zr], lanes [k + xo], [k + yo],
    [k + zo] of classes [x], [y], [z]. An operand the operator does not
    take repeats [x] (see {!operands}). *)

type load = {
  ldst : int;  (** the load's class *)
  slot : int;  (** an access-table slot of the class *)
  lead : int array;
      (** the rank-1 leading offsets of ring row 0 (row dimension:
          [rlo]) *)
  rel : int;
      (** lane [k] of a strip from [x0] reads table index
          [x0 + k + slot shift + rel] *)
  lspan : int;
  rlo : int;
  rhi : int;
  lo : int;
  hi : int;
}

type tape = {
  lanes : int array;  (** per class: lanes of each ring buffer *)
  rows : int array;  (** per class: ring length *)
  consts : float option array;  (** per class: [Some c] for a constant *)
  loads : load array;  (** driver ring-base order *)
  nodes : node array;  (** operands before users *)
  result : int;  (** one row, lane [k] is point [x0 + k] *)
}

val tape_of_plan : Plan.t -> tape option
(** The tape {!bind} builds for a postfix body (with its hull checks),
    [None] for an FMA-chain body. Raises as {!bind} does on a
    malformed body, and {!Unresolved_coefficient} on a [Sym]. *)

val operands : node -> (int * int * int) list
(** The node's operands as (class, buffer offset, lane offset), as many
    as its operator takes. *)

val ringed : tape -> bool array
(** Per class: an operator class that more than one operand reads —
    the classes a generated kernel keeps in rings of line buffers; one
    read once is computed inside its user's loop instead. *)

val tape_counts : bound -> (int * int) option
(** [Some (nodes, loads)]: the operator nodes and load classes of a
    postfix body's tape, after 2-D shift-class numbering — what a
    streamed row computes, one leading row per class; [None] for an
    FMA-chain body. Read-only — for tests and reports. *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type raw = {
  r_slot_data : farr array;  (** per-slot raw storage *)
  r_slot_tab : int array array;  (** per-slot last-dimension tables *)
  r_out_data : farr;
  r_out_tab : int array;
}
(** The bound's addressing handles, exposed so a generated kernel
    ({!Codegen}) can be driven with the same storage and tables the
    interpreter uses — which is what makes the two bit-identical. *)

type driver
(** Per-region mutable scratch over a shared {!bound} (slot row bases,
    coordinate scratch, the tape's rings: per strip position of the
    widest segment stored so far, per class, one line buffer of
    strip + span lanes per row of its row hull, constants filled at
    allocation; each buffer a minor-heap block while spans stay within
    128 lanes, so a driver never calls [malloc]). Not thread-safe;
    allocate one per concurrent region. *)

val driver : bound -> driver

val set_row : driver -> int array -> unit
(** [set_row drv outer] positions the driver on the row selected by the
    [rank - 1] leading interior coordinates (empty for rank 1):
    computes every slot's and the output's flat row base, and records
    the coordinates {!store_row} compares with the rows its rings
    hold. *)

val driver_row : driver -> int array
(** The driver's per-slot flat row bases (the array {!set_row} fills;
    stable across calls — read, never mutate). *)

val driver_out_row : driver -> int
(** The output row base of the row selected by the last {!set_row}. *)

val driver_raw : driver -> raw
(** The addressing handles of the driver's bound. *)

type rings = {
  head : int array;
      (** per class: the physical ring index of logical row 0 *)
  lbase : int array array;
      (** per load (in {!tape}[.loads] order), per logical ring row:
          its flat row base — valid for every row after {!begin_row} *)
  mutable sets : float array array array array;
      (** per strip position of the segment, per class: its ring of
          line buffers (logical row [j] is buffer
          [(head.(c) + j) mod rows.(c)]) *)
}
(** A driver's ring storage, shared by both backends. *)

val driver_rings : driver -> rings

val begin_row : driver -> int -> int -> bool
(** [begin_row drv xb xe]: the continue-or-restart decision of
    {!store_row} for the current row segment, taken once for both
    backends. It positions the rings (rotated by one row when the row
    continues the last one, else restarted), fills {!rings}[.lbase],
    makes room for every strip position of [\[xb, xe)] and records the
    row as the one the rings hold. Returns [true] when the rings were
    rotated, so only each class's newest row must be computed. An
    FMA-chain body has no rings: [false]. *)

val begin_point : driver -> unit
(** Restart the rings for a one-point evaluation on the first strip
    position ({!eval}'s set-up); the next row restarts too. *)

val eval : driver -> int -> float
(** Value at last-dimension coordinate [x] of the current row: the
    tape restarted on a strip of one point, allocating nothing (the
    traced and sanitized paths). One traced point still computes every
    class over its whole row and lane hulls, so it reads the loads'
    hull rectangle around [x], not only the access-table entries the
    trace reports. It uses the first strip position's rings, so the
    next {!store_row} restarts. No bounds checks — see {!store_row}. *)

val out_offset : driver -> int -> int
(** Flat element offset of the output point at [x]. *)

val out_addr : driver -> int -> int
(** Virtual byte address of the output point at [x] (for tracing). *)

val read_addr : driver -> int -> int -> int
(** [read_addr drv slot x]: virtual byte address of access-table entry
    [slot] at [x], in the plan's canonical access order. *)

val store_row : driver -> int -> int -> unit
(** [store_row drv xb xe]: evaluate and store every point of the
    current row with [xb <= x < xe] — the untraced hot path, row bases
    hoisted. A postfix body runs strip by strip (128 points): a
    backward pass at bind time gave every class a row hull
    [\[rlo, rhi\]] and a lane hull [\[lo, hi\]] of the shifts its users
    need it at, so over a strip of [n] points each load class and then
    each node fills rows of [n + hi - lo] lanes, reading each operand
    at one fixed row and lane offset; then the strip is stored. Each
    strip position of the segment has its own rings, one buffer per
    row of a class's row hull.

    Continue or restart: if the previous [store_row] on this driver
    stored the same [\[xb, xe)] one row earlier along dimension
    [rank - 2], with every other leading coordinate equal and no
    {!eval} since, the rings rotate by one row and each class computes
    only its row [rhi]; the rows it reuses are the ones the previous
    calls computed, which assumes the inputs did not change in
    between (a driver lives for one sweep). Otherwise — the first row
    of a block, a row jump or repeat, a changed segment, a rank-3
    stream moving to the next z, an empty segment — every class
    computes its whole row hull. Every strip loop is unrolled by four
    with a scalar remainder. An FMA-chain body runs one monomorphic
    loop per point. The output index advances incrementally on
    unit-stride layouts. No bounds checks: the caller must have gated
    the region (legal interior regions are always safe because grid
    left padding covers the halo). *)

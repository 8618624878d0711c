(** Plan→native code generation: specialize a kernel plan to OCaml
    source.

    Where {!Lower} {e interprets} a plan row by row, this module emits a
    self-contained OCaml compilation unit specialized to it — every
    coefficient a literal, every last-dimension shift and pad
    constant-folded into the address arithmetic, table indirection
    dropped entirely on unit-stride grids. The engine's
    [Codegen_backend] ({!Yasksite_engine.Sweep}) compiles the emitted
    source out of process with [ocamlfind ocamlopt -shared], loads the
    resulting [.cmxs] via [Dynlink], and caches it in the
    content-addressed store under the [kern-v1] schema; this module is
    the pure front half — it only builds the checked AST
    ({!Kernel_ast}), prints it and computes keys, and is usable without
    any toolchain.

    {2 Body shapes}

    An FMA-chain ({!Plan.Groups}) body becomes one straight-line chain
    per point. A postfix ({!Plan.Program}) body is emitted from the
    interpreter's own lowering, {!Lower.tape_of_plan}: a [strip]
    function runs one loop per shift class that more than one operand
    reads, over each row of the class's ring (all rows when the rings
    restart, the newest when a row streams), with lane and row offsets
    folded into literals; a class read once is computed inside its
    user's loop, a load class is read in place at its ring row's base
    and a constant is a literal. The entry points then evaluate the
    result class per point. The ring storage, the load row bases and
    the continue-or-restart decision belong to the caller's
    {!Lower.driver} ({!Lower.begin_row}), so both backends restart
    exactly when the other would.

    {2 Specialization point}

    A generated kernel is specific to one {e variant}: the plan
    fingerprint × the per-slot last-dimension shifts (access offset +
    grid left pad, which fold the halo geometry into literals) × the
    per-slot and output unit-stride flags (layout/fold) × the output
    pad. Two grid sets sharing a variant share the kernel; extents are
    {e not} part of the variant (row bases arrive at run time), so one
    kernel covers every problem size of a given layout.

    {2 Bit-identity}

    The emitted code replays the plan interpreter's exact IEEE-754
    operation sequence: the same [1.0]/[-1.0] coefficient
    specializations, the same left-associated [+.] chains and scales
    applied after group sums for FMA chains, and for tapes the same
    class operations over the same operands at the same shifts.
    Coefficients render as hex-float literals (round-trip exact for
    every finite double); plans with [NaN] coefficients or unresolved
    {!Plan.Sym}s are refused ({!source} returns [Error]) and the caller
    falls back to the interpreter.

    {2 ABI}

    The generated unit depends only on the stdlib — no cmi of this
    code base is shared with it — and publishes [(kern_row, kern_point)]
    through [Callback.register] under {!callback_name}, which embeds
    {!abi}. The host retrieves the pair through [caml_named_value] and
    casts to {!kern}; bumping {!abi} whenever {!type-kern_row} or
    {!type-kern_point} changes is what keeps that cast sound (and keys
    every kernel of an older emitter out of the store). *)

type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type kern_row =
  farr array ->
  int array array ->
  farr ->
  int array ->
  int array ->
  int ->
  int array array ->
  int array ->
  float array array array array ->
  bool ->
  int ->
  int ->
  unit
(** [kern_row slot_data slot_tab out out_tab row out_row lbase head sets
    stream xb xe] evaluates and stores every point [xb <= x < xe] of
    the current row — the generated counterpart of {!Lower.store_row}.
    [row] holds the per-slot flat row bases and [out_row] the output's;
    [lbase], [head] and [sets] are the driver's {!Lower.rings} and
    [stream] its {!Lower.begin_row} verdict (a tape body reads them, an
    FMA-chain body reads [row]). The tables are only read for slots
    the variant marks non-unit-stride. No bounds checks — the caller
    gates regions exactly as for the interpreter. *)

type kern_point =
  farr array ->
  int array array ->
  int array ->
  int array array ->
  int array ->
  float array array array array ->
  int ->
  float
(** [kern_point slot_data slot_tab row lbase head sets x]: one point's
    value after {!Lower.begin_point} — the generated counterpart of
    {!Lower.eval}, used on traced and sanitized paths where addressing
    and checks stay with the driver. *)

type kern = { row : kern_row; point : kern_point }

val abi : int
(** ABI version of the kernel signatures above, embedded in
    {!callback_name}. Bump on any signature change. *)

type variant = {
  slot_shift : int array;
      (** per access-table slot: last-dim offset + input grid left pad *)
  slot_unit : bool array;
      (** per slot: the input grid is unit-stride (identity table) *)
  out_lp : int;  (** output grid's last-dimension left pad *)
  out_unit : bool;  (** the output grid is unit-stride *)
}
(** Everything besides the plan itself that the emitted source folds
    into literals. *)

val variant_of :
  plan:Plan.t -> inputs:Yasksite_grid.Grid.t array ->
  output:Yasksite_grid.Grid.t -> variant
(** The variant these grids induce for [plan]. The grids' extents do
    not matter, only halo/pad and layout. *)

val key : plan:Plan.t -> variant -> string
(** Content-addressed digest of (ABI × plan fingerprint × variant) —
    the specialization key. The store key additionally hashes in the
    compiler version and flags (see {!Yasksite_engine.Native}). *)

val callback_name : string -> string
(** [callback_name key]: the ABI-versioned [Callback.register] name the
    generated unit publishes its kernel pair under. *)

val unit_basename : string -> string
(** [unit_basename key]: the source/compilation-unit basename
    (extension-less) to emit the unit as — stable per key so reloads
    re-use one unit name ([Dynlink.loadfile_private] allows that). *)

val source : plan:Plan.t -> variant -> (string, string) result
(** The complete OCaml source of the specialized unit, or
    [Error reason] when the plan cannot be generated (unresolved
    {!Plan.Sym} coefficients, [NaN] coefficients, malformed body).
    Raises [Invalid_argument] if the variant's arrays do not match the
    plan's access-table arity. *)

val supported : Plan.t -> (unit, string) result
(** Whether {!source} can succeed for this plan (variant-independent:
    checks the body only). *)

val store_row : kern -> Lower.driver -> int -> int -> unit
(** [store_row k drv xb xe]: {!Lower.store_row} on the compiled kernel —
    {!Lower.begin_row} decides and positions the rings, then
    [k.row] runs the row on the driver's storage. *)

val eval : kern -> Lower.driver -> int -> float
(** [eval k drv x]: {!Lower.eval} on the compiled kernel. *)

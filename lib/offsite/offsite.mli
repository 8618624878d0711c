(** The Offsite pipeline: enumerate implementation variants of an
    explicit ODE method over a stencil-RHS PDE, obtain a per-kernel
    performance prediction from YaskSite's ECM model (optionally with
    analytically tuned kernel configurations), rank the variants, and
    validate the ranking against measurements — the paper's integration
    experiment.

    Decisions are model-only: {!score}, {!rank_methods} and
    {!rank_methods_at_accuracy} never run a kernel on the cache
    simulator. Measuring is a separate, explicit step ({!measure}); the
    validation entry points {!evaluate} and {!evaluate_mixed} take it
    for every candidate they return. *)

type candidate = {
  variant : Variant.t;
  tuned : bool;  (** kernel configs chosen by the analytic advisor *)
  configs : (string * Yasksite_ecm.Config.t) list;  (** per kernel label *)
  predicted_step_seconds : float;
  measured_step_seconds : float option;
      (** simulated-machine time, [None] until {!measure} runs *)
}

val score :
  ?cache:Yasksite_ecm.Cache.t ->
  ?store:Yasksite_store.Store.t ->
  ?pool:Yasksite_util.Pool.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Variant.t ->
  threads:int ->
  tuned:bool ->
  candidate
(** Predict one variant's per-step time: the sum over its kernels of
    grid points divided by the predicted chip LUP/s. When [tuned], each
    kernel's configuration is the best wavefront-free configuration of
    the analytic advisor; otherwise the default (unblocked, linear)
    configuration. Runs nothing: [measured_step_seconds] is [None]. *)

val measure :
  Yasksite_arch.Machine.t -> Yasksite_ode.Pde.t -> candidate -> candidate
(** [measure m pde c] runs each of [c]'s kernels on the cache simulator
    ({!Yasksite_engine.Measure.stencil_sweep}) in its configuration
    from [c.configs] and fills [measured_step_seconds] with the sum of
    grid points over measured chip LUP/s. Deterministic: measuring the
    same candidate twice gives bit-equal values. *)

val evaluate :
  ?cache:Yasksite_ecm.Cache.t ->
  ?store:Yasksite_store.Store.t ->
  ?pool:Yasksite_util.Pool.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t ->
  h:float ->
  threads:int ->
  candidate list
(** All four candidates ({unfused, fused} x {naive, tuned}), scored
    and then measured ({!score}, then {!measure}), sorted by predicted
    time, fastest first. ECM model evaluations are memoized
    in [cache] (default {!Yasksite_ecm.Cache.shared}) — variants share
    kernels, so repeated rankings hit; candidates are scored on
    [pool]'s domains when given; [store] additionally persists
    per-kernel tuning memos (see {!best_static_config}). None of the
    three changes the result. *)

val evaluate_mixed :
  ?cache:Yasksite_ecm.Cache.t ->
  ?store:Yasksite_store.Store.t ->
  ?pool:Yasksite_util.Pool.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t ->
  h:float ->
  threads:int ->
  candidate list
(** Like {!evaluate} but over the full per-stage fusion-mask space
    ({!Variant.all_mixed}) x {naive, tuned} — the richer variant set the
    real Offsite enumerates (2^s x 2 candidates for an s-stage
    method). *)

type quality = {
  kendall : float;  (** rank correlation predicted vs measured times *)
  top1 : bool;  (** did the prediction select the measured-fastest? *)
  speedup_selected : float;
      (** measured time of the baseline (unfused naive) over measured
          time of the predicted-best candidate *)
  selected_gap : float;
      (** how much slower the predicted-best runs than the true measured
          optimum (0 = the prediction found the optimum) *)
  mean_abs_error : float;  (** mean |pred - meas| / meas over candidates *)
}

val quality : candidate list -> quality
(** Ranking quality of an {!evaluate} result (>= 2 candidates). Raises
    [Invalid_argument] when a candidate has not been measured. *)

type method_choice = {
  tableau : Yasksite_ode.Tableau.t;
  candidate : candidate;  (** the method's best implementation variant *)
  h_stable : float;  (** stability-limited step size on this problem *)
  predicted_time_per_unit : float;
      (** predicted seconds of compute per simulated second *)
}

val spectral_radius : Yasksite_ode.Pde.t -> float
(** Dominant |eigenvalue| of the (linearised) right-hand side, estimated
    by power iteration on the flat-vector view — for heat-type problems
    this approaches [4 d alpha / dx^2]. *)

val rank_methods :
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t list ->
  threads:int ->
  method_choice list
(** Offsite's cross-method selection for a parabolic problem: for each
    explicit method, take its stability-limited step size (real-axis
    stability interval over the discrete Laplacian's spectral radius),
    pick its best implementation variant by prediction, and rank the
    methods by predicted compute time per simulated second. Sorted by
    prediction, best first. Model-only: the candidates are unmeasured
    ({!measure} one to validate it). *)

type accuracy_choice = {
  tableau_a : Yasksite_ode.Tableau.t;
  candidate_a : candidate;  (** best implementation variant *)
  steps : int;  (** steps needed to meet the tolerance *)
  h_used : float;
  achieved_error : float;
      (** max-norm time-integration error vs a fine reference *)
  predicted_seconds : float;  (** predicted compute time for the run *)
}

val rank_methods_at_accuracy :
  Yasksite_arch.Machine.t ->
  Yasksite_ode.Pde.t ->
  Yasksite_ode.Tableau.t list ->
  t_end:float ->
  tol:float ->
  threads:int ->
  accuracy_choice list
(** The full Offsite question: cheapest way to integrate the problem to
    [t_end] within time-integration error [tol]. For each method the
    step count starts at the stability limit and doubles until the error
    against a fine DOPRI5 reference (on the same spatial grid, so spatial
    error cancels) meets the tolerance; the cost is steps times the best
    variant's per-step time. A method whose ten doublings never meet
    [tol] is still returned, with the [steps] and [achieved_error] of
    its last attempt, but every choice with [achieved_error <= tol]
    ranks ahead of every such miss; within each group the order is by
    predicted cost, best first. Model-only: the candidates are
    unmeasured. Intended for moderate grids (the calibration integrates
    the real problem). *)

val best_static_config :
  ?cache:Yasksite_ecm.Cache.t ->
  ?store:Yasksite_store.Store.t ->
  ?pool:Yasksite_util.Pool.t ->
  Yasksite_arch.Machine.t ->
  Yasksite_stencil.Analysis.t ->
  dims:int array ->
  threads:int ->
  Yasksite_ecm.Config.t
(** Best advisor configuration with temporal blocking disabled —
    RK data flow re-reads stages, so wavefronts across steps do not
    apply to ODE kernels. The ranking is deterministic in (machine,
    kernel, dims, threads), so [store] memoizes the winner (namespace
    ["offsite-v1"]): a warm start skips the whole ranking pass. A memo
    that fails to decode or that the schedule analyzer refutes is
    ignored and recomputed — a degraded store can cost time, never
    change the configuration. *)

(** Least-squares line fitting, used to calibrate the request cost model
    C(I/O type, r) from measured latency-vs-load curves (paper §3.2.1). *)

type fit = { slope : float; intercept : float; r2 : float }

(** Ordinary least squares y = intercept + slope * x.
    Raises [Invalid_argument] on fewer than 2 points. *)
val fit : (float * float) list -> fit

package repro.core

/** Estimator algebra of REPT (Section III of the paper) as pure functions,
  * shared by the sequential orchestrator, the Spark runner and the tests.
  *
  * Conventions: processors are 0-indexed; for c > m they are grouped as
  * c = c₁·m + c₂ with groups 0..c₁−1 full (m processors) and, when c₂ ≠ 0, a
  * leftover group of c₂ processors.
  */
object ReptEstimator {

  /** Group layout for a (m, c) configuration. */
  final case class Layout(m: Int, c: Int) {
    require(m >= 1 && c >= 1, s"need m,c >= 1, got m=$m c=$c")
    val cLeM: Boolean = c <= m
    /** Number of full groups (c₁); 0 when c ≤ m. */
    val c1: Int = if (cLeM) 0 else c / m
    /** Leftover processors (c₂); equals c when c ≤ m. */
    val c2: Int = if (cLeM) c else c % m
    /** Whether the c > m, c₂ ≠ 0 estimator (and hence η tracking) is needed. */
    val needsEta: Boolean = !cLeM && c2 != 0
  }

  /** τ̂ = (m²/c)·Στ⁽ⁱ⁾ — the c ≤ m estimator (Theorem 2/3). */
  def estimateCleM(m: Int, c: Int, tauSum: Long): Double =
    m.toDouble * m.toDouble / c * tauSum

  /** τ̂ = (m/c₁)·Στ⁽ⁱ⁾ over the c₁ full groups — the c > m, c₂ = 0 estimator. */
  def estimateFullGroups(m: Int, c1: Int, tauSumFull: Long): Double =
    m.toDouble / c1 * tauSumFull

  /** η̂ = (m³/c)·Ση⁽ⁱ⁾ over all c processors. */
  def estimateEta(m: Int, c: Int, etaSum: Long): Double =
    math.pow(m.toDouble, 3) / c * etaSum

  /** Graybill–Deal combination of the two unbiased estimates with plug-in
    * variances (Algorithm 2). `t1` comes from the full groups, `t2` from the
    * leftover group, `etaHat` from all processors. When both plug-in weights
    * vanish (no information in either), falls back to the unweighted mean.
    */
  def combineCgtM(m: Int, c1: Int, c2: Int, t1: Double, t2: Double, etaHat: Double): Double = {
    val w1 = t1 * (m - 1) / c1
    val w2 = (t1 * (m.toDouble * m - c2) + 2.0 * etaHat * (m - c2)) / c2
    if (w1 + w2 <= 0) (t1 + t2) / 2.0
    else (w2 * t1 + w1 * t2) / (w1 + w2)
  }

  /** The REPT estimate for any (m, c) from counter sums: `s1` over the full
    * groups' processors, `s2` over the rest (all c processors when c ≤ m),
    * `se` = Ση⁽ⁱ⁾ over all processors (read only when `lay.needsEta`). The
    * global estimate and every per-node estimate go through this function.
    */
  def estimate(lay: Layout, s1: Long, s2: Long, se: Long): Double = {
    import lay._
    if (cLeM) estimateCleM(m, c, s2)
    else if (c2 == 0) estimateFullGroups(m, c1, s1)
    else combineCgtM(m, c1, c2, estimateFullGroups(m, c1, s1), estimateCleM(m, c2, s2),
      estimateEta(m, c, se))
  }

  /** Global estimate for any (m, c) given the per-processor counters.
    * `tauPerProc` has length c in processor order; `etaPerProc` is required
    * only when Layout(m,c).needsEta.
    */
  def estimateGlobal(m: Int, c: Int, tauPerProc: Seq[Long], etaPerProc: Seq[Long] = Nil): Double = {
    require(tauPerProc.length == c, s"expected $c tau counters, got ${tauPerProc.length}")
    val lay = Layout(m, c)
    if (lay.needsEta)
      require(etaPerProc.length == c, s"expected $c eta counters, got ${etaPerProc.length}")
    val (full, rest) = tauPerProc.splitAt(lay.c1 * m)
    estimate(lay, full.sum, rest.sum, etaPerProc.sum)
  }

  /** Theoretical Var(τ̂) for c ≤ m (Theorem 3). Also valid per-node with
    * (τ_v, η_v).
    */
  def varianceCleM(tau: Double, eta: Double, m: Int, c: Int): Double =
    (tau * (m.toDouble * m - c) + 2.0 * eta * (m - c)) / c

  /** Theoretical Var(τ̂) for c = c₁·m (Section III-B.1). */
  def varianceFullGroups(tau: Double, m: Int, c1: Int): Double =
    tau * (m - 1.0) / c1

  /** Theoretical variance of naively parallelised MASCOT/Trièst (Section III-C). */
  def varianceParallelMascot(tau: Double, eta: Double, m: Int, c: Int): Double =
    (tau * (m.toDouble * m - 1) + 2.0 * eta * (m - 1)) / c
}

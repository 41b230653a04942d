package repro.core

/** An open-addressing `Long → Long` counter map: an absent key reads 0, and
  * `add` / `update` create the entry (even with value 0), as on a `LongMap`
  * with default 0, but without boxing keys or values.
  *
  * Key 0 marks a free slot, so an entry for key 0 lives in one extra slot
  * past the table.
  */
final class LongCounts {
  private var keys = new Array[Long](17)
  private var vals = new Array[Long](17)
  private var used = 0 // entries with a nonzero key
  private var hasZero = false

  /** Number of entries. */
  def size: Int = used + (if (hasZero) 1 else 0)

  /** The count of key k, 0 if absent. */
  def apply(k: Long): Long = vals(find(k))

  /** Adds d to the count of k. */
  def add(k: Long, d: Long): Unit = { val i = claim(k); vals(i) += d; grow() }

  /** Sets the count of k to x. */
  def update(k: Long, x: Long): Unit = { val i = claim(k); vals(i) = x; grow() }

  /** Sizes this empty map for `n` entries, so that adding them does not
    * grow it.
    */
  def reserve(n: Int): Unit = {
    require(size == 0, "reserve needs an empty map")
    var cap = keys.length - 1
    while (2 * n >= cap) cap *= 2
    keys = new Array[Long](cap + 1)
    vals = new Array[Long](cap + 1)
  }

  /** Calls f(key, count) for every entry. */
  def foreachEntry(f: (Long, Long) => Unit): Unit = {
    var i = 0
    while (i < keys.length - 1) {
      if (keys(i) != 0L) f(keys(i), vals(i))
      i += 1
    }
    if (hasZero) f(0L, vals(keys.length - 1))
  }

  /** The entries as an immutable map. */
  def toMap: Map[Long, Long] = {
    val b = Map.newBuilder[Long, Long]
    foreachEntry((k, n) => b += k -> n)
    b.result()
  }

  /** Slot of k: its entry, or the free slot where it would go, whose value
    * is still 0 (slots are never freed).
    */
  private def find(k: Long): Int = {
    if (k == 0L) return keys.length - 1
    val mask = keys.length - 2
    var i = Adjacency.mixLong(k) & mask
    while (keys(i) != 0L && keys(i) != k) i = (i + 1) & mask
    i
  }

  /** Slot of k, claimed for it if k is new. */
  private def claim(k: Long): Int = {
    val i = find(k)
    if (k == 0L) hasZero = true
    else if (keys(i) == 0L) { keys(i) = k; used += 1 }
    i
  }

  /** Doubles the table once it is half full. */
  private def grow(): Unit = if (2 * used > keys.length - 2) {
    val (oldKeys, oldVals) = (keys, vals)
    keys = new Array[Long](2 * oldKeys.length - 1)
    vals = new Array[Long](2 * oldKeys.length - 1)
    vals(keys.length - 1) = oldVals(oldKeys.length - 1)
    var j = 0
    while (j < oldKeys.length - 1) {
      if (oldKeys(j) != 0L) {
        val i = find(oldKeys(j))
        keys(i) = oldKeys(j); vals(i) = oldVals(j)
      }
      j += 1
    }
  }
}

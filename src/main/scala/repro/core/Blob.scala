package repro.core

import java.nio.{ByteBuffer, ByteOrder}

/** The one byte layout of `ReptProcessor.Counters`, `ReptProcessor.State` and
  * the streaming query's packs: a fixed header of longs, then one `Int`
  * array and any number of `Long` arrays, each as its `Int` length followed
  * by its elements, all little-endian. A reader checks every length against
  * the bytes left and that none are left over, so a cut or padded blob
  * throws instead of decoding.
  */
object Blob {

  def encode(header: Array[Long], ints: Array[Int], longs: Array[Long]*): Array[Byte] = {
    val b = ByteBuffer.allocate(8 * header.length + 4 + 4 * ints.length + longs.map(4 + 8 * _.length).sum)
      .order(ByteOrder.LITTLE_ENDIAN)
    header.foreach(b.putLong)
    b.putInt(ints.length).asIntBuffer.put(ints)
    b.position(b.position + 4 * ints.length)
    for (a <- longs) {
      b.putInt(a.length).asLongBuffer.put(a)
      b.position(b.position + 8 * a.length)
    }
    b.array
  }

  /** `read` applied to a reader over `bytes`, which it must read to the end. */
  def decode[A](bytes: Array[Byte])(read: Reader => A): A = {
    val r = new Reader(ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN))
    val a = read(r)
    require(!r.b.hasRemaining, s"${r.b.remaining} bytes after the last array")
    a
  }

  /** Reads a blob's parts in the order `encode` wrote them. */
  final class Reader private[Blob] (private[Blob] val b: ByteBuffer) {
    def long(): Long = b.getLong

    def ints(): Array[Int] = {
      val a = new Array[Int](length(4))
      b.asIntBuffer.get(a)
      b.position(b.position + 4 * a.length)
      a
    }

    def longs(): Array[Long] = {
      val a = new Array[Long](length(8))
      b.asLongBuffer.get(a)
      b.position(b.position + 8 * a.length)
      a
    }

    private def length(size: Int): Int = {
      val n = b.getInt
      require(n >= 0 && n <= b.remaining / size, s"an array of $n elements in ${b.remaining} bytes")
      n
    }
  }
}

package org.apache.spark

/** Access to the listener bus's drain, which Spark keeps package-private:
  * after an action returns, its task and stage events may still be queued.
  */
object PerfbenchBridge {
  def drainListenerBus(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

package repro.perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.concurrent.TrieMap
import scala.collection.mutable
import org.apache.spark.scheduler._

/** A timed interval at a layer boundary; `parent` is -1 for a root span. */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int, op: String)

/** In-memory spans and counters for the traced run.
  *
  * A span is (name, start, end, parent, op); spans of one op share its op
  * key. Counters are summed per (op, name). Both are written out when the
  * run ends, never while it is timed.
  */
final class Tracer {
  val spans: mutable.ArrayBuffer[Span]            = mutable.ArrayBuffer.empty
  val counters: mutable.Map[(String, String), Double] = mutable.LinkedHashMap.empty
  private var stack: List[Int] = Nil
  private var nextId           = 0

  def span[A](name: String, op: String)(body: => A): A = {
    val id     = nextId
    val parent = stack.headOption.getOrElse(-1)
    nextId += 1
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, name, t0, System.nanoTime(), parent, op)
      stack = stack.tail
    }
  }

  def count(op: String, name: String, v: Double): Unit =
    counters((op, name)) = counters.getOrElse((op, name), 0.0) + v
}

/** One finished task, attributed to the op (job group) that ran it. */
final case class Task(group: String, stage: Int, launchMs: Long, finishMs: Long, runMs: Long,
                      gcMs: Long, shuffleWriteBytes: Long, shuffleReadBytes: Long)

/** Spark listener that attributes jobs, stages and tasks to ops by the job
  * group the benchmark sets around each call.
  */
final class SparkCounters extends SparkListener {
  val jobs   = new ConcurrentLinkedQueue[(String, Int)]()
  val stages = new ConcurrentLinkedQueue[(String, Int)]()
  val tasks  = new ConcurrentLinkedQueue[Task]()
  private val stageGroup = TrieMap.empty[Int, String]
  private val ended      = TrieMap.empty[Int, Unit]

  private def group(p: java.util.Properties): Option[String] =
    Option(p).flatMap(x => Option(x.getProperty("spark.jobGroup.id")))

  override def onJobStart(e: SparkListenerJobStart): Unit =
    group(e.properties).foreach(g => jobs.add((g, e.jobId)))

  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.put(e.jobId, ())

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    group(e.properties).foreach { g =>
      stageGroup.put(e.stageInfo.stageId, g)
      stages.add((g, e.stageInfo.stageId))
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      tasks.add(Task(g, e.stageId, e.taskInfo.launchTime, e.taskInfo.finishTime,
        m.executorRunTime, m.jvmGCTime, m.shuffleWriteMetrics.bytesWritten,
        m.shuffleReadMetrics.totalBytesRead))
    }

  /** Waits until the listener has seen the end of every job in `groups`, so
    * the task events of those jobs have been delivered (the bus is FIFO).
    */
  def drain(sc: org.apache.spark.SparkContext, groups: Seq[String], timeoutMs: Long = 20000): Unit = {
    val ids      = groups.flatMap(g => sc.statusTracker.getJobIdsForGroup(g).toSeq)
    val deadline = System.currentTimeMillis() + timeoutMs
    def pending  = ids.exists(id => !ended.contains(id))
    while (pending && System.currentTimeMillis() < deadline) Thread.sleep(20)
    require(!pending, "Spark listener did not receive every job end")
  }
}

/**
 * @file
 * Durable job queue for the sweep service.
 *
 * A queue is a directory of append-only JSONL segment files
 * (`queue-NNNNNN.jsonl`), each opened by a CRC-sealed header line
 * and filled with CRC-sealed operation records (harness/jsonl.hh):
 *
 *   {"queue":"soefair-queue","v":1,"seg":1,"key":"<...>","crc":N}
 *   {"op":"enqueue","job":"st:gcc:1","fp":"ab12..","seed":1,"crc":N}
 *   {"op":"lease","job":"...","worker":"w0","attempt":1,
 *    "expiry":1700000060,"crc":N}
 *   {"op":"heartbeat","job":"...","worker":"w0","expiry":...,"crc":N}
 *   {"op":"expire","job":"...","worker":"w0","crc":N}
 *   {"op":"release","job":"...","worker":"w0","crc":N}
 *   {"op":"done","job":"...","worker":"w0","attempt":1,
 *    "payload":"...","crc":N}
 *   {"op":"failed","job":"...","worker":"w0","attempt":1,
 *    "class":"watchdog","detail":"...","t":1700000042,"crc":N}
 *   {"op":"quarantine","job":"...","attempts":3,"class":"watchdog",
 *    "detail":"...","crc":N}
 *
 * Durability and recovery rules:
 *
 *  - every append is a single write(2) + fsync under an exclusive
 *    flock on `<dir>/lock`, so concurrent workers (separate
 *    *processes*) interleave whole records, never bytes;
 *  - a torn final line in the *last* segment (a worker killed
 *    mid-append) is truncated away with a warning on the next
 *    operation — the record it described was never acted on, so
 *    dropping it loses nothing committed;
 *  - any other malformed or checksum-failing line raises
 *    CheckpointError (exit 13): silent corruption is a defined
 *    failure, never parsed garbage.
 *
 * Scheduling semantics:
 *
 *  - jobs are claimed in enqueue order under time-bounded leases;
 *    a worker renews its lease with heartbeat records and loses it
 *    when the expiry passes (crashed/hung worker). Reclaiming an
 *    expired lease does NOT advance the attempt number — the retry
 *    runs at the same seed, so a kill-and-resume campaign stays
 *    byte-identical to an uninterrupted one. Only a *committed
 *    failure* record advances the attempt (jittered reseeding, same
 *    rule as the in-process supervisor);
 *  - a job is quarantined (dead-lettered, surfaced as an explicit
 *    MISSING cell, never retried again) after maxAttempts committed
 *    transient failures, after a single permanent failure, or after
 *    maxAttempts lost leases (a poison job that kills its worker
 *    every time never loops forever);
 *  - enqueue admission control: with a nonzero capacity, enqueueing
 *    beyond `capacity` open (pending + leased) jobs is rejected —
 *    backpressure the producer can see, instead of an unbounded
 *    queue.
 */

#ifndef SOEFAIR_HARNESS_SERVICE_QUEUE_HH
#define SOEFAIR_HARNESS_SERVICE_QUEUE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace soefair
{
namespace harness
{
namespace service
{

/** Queue format version written/accepted by this build. */
constexpr int queueVersion = 1;

/** `soefair_cli enqueue` exit code when admission control rejected
 *  at least one job (queue at capacity). */
constexpr int exitQueueSaturated = 22;

/** One unit of queued work. */
struct QueueJob
{
    std::string id;
    /** Content-address fingerprint (result-cache key half). */
    std::string fingerprint;
    /** Base seed; attempt k runs at attemptSeed(seed, k). */
    std::uint64_t seed = 0;
};

enum class JobPhase
{
    Pending,     ///< enqueued, no active lease
    Leased,      ///< a worker holds an unexpired lease
    Done,        ///< payload committed
    Quarantined, ///< dead-lettered; surfaced as a MISSING cell
};

/** Replayed per-job state. */
struct JobStatus
{
    QueueJob job;
    JobPhase phase = JobPhase::Pending;
    /** Done: the committed result payload. */
    std::string payload;
    /** Done: the 1-based attempt that committed the payload. */
    unsigned doneAttempt = 0;
    /** Last failure / quarantine classification. */
    std::string failClass;
    std::string failDetail;
    /** Committed `failed` records (attempt = failedAttempts + 1). */
    unsigned failedAttempts = 0;
    /** Leases reclaimed after expiry (crashed workers). */
    unsigned leaseLosses = 0;
    /** Leased: current holder / attempt / expiry (epoch seconds). */
    std::string worker;
    unsigned leaseAttempt = 0;
    std::int64_t leaseExpiry = 0;
    /** Epoch seconds of the last committed failure (backoff gate). */
    std::int64_t lastFailTime = 0;
};

struct QueueConfig
{
    /** Bound on open (pending + leased) jobs; 0 = unbounded. */
    unsigned capacity = 0;
    /** Committed transient failures before quarantine (>= 1); also
     *  the bound on lost leases before a job is presumed poison. */
    unsigned maxAttempts = 3;
    /** Base of the exponential retry backoff applied at claim time
     *  (SweepSupervisor::backoffSeconds schedule). */
    double backoffBaseSeconds = 0.25;
    /** Records per segment before a new segment file is started. */
    unsigned segmentRecords = 512;
};

/** A held lease, passed back to heartbeat/complete/fail/release. */
struct LeaseClaim
{
    QueueJob job;
    std::string worker;
    /** 1-based attempt this lease runs (1 + committed failures). */
    unsigned attempt = 1;
    std::int64_t expiry = 0;
};

enum class EnqueueResult
{
    Added,     ///< new job durably enqueued
    Duplicate, ///< job id already known (idempotent re-enqueue)
    Rejected,  ///< admission control: queue at capacity
};

class JobQueue
{
  public:
    JobQueue() = default;
    ~JobQueue();
    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /**
     * Create the queue directory (with its first segment) or open an
     * existing one. An existing queue whose key differs from `key`
     * raises CheckpointError — it belongs to a different campaign
     * configuration.
     */
    void open(const std::string &dir, const std::string &key,
              const QueueConfig &cfg);
    void close();
    bool isOpen() const { return lockFd >= 0; }

    /** Whether `dir` already holds a queue (its first segment). */
    static bool exists(const std::string &dir);
    /** Key of an existing queue (raises CheckpointError when the
     *  first segment's header is unreadable). */
    static std::string peekKey(const std::string &dir);

    const std::string &key() const { return queueKey; }
    const std::string &directory() const { return queueDir; }

    /** Durably enqueue a job (idempotent on the job id). */
    EnqueueResult enqueue(const QueueJob &job);

    /**
     * Claim the oldest eligible job under a lease expiring at
     * `now + lease_seconds`. Eligible: pending jobs past their
     * retry backoff, plus expired leases (reclaimed here, which may
     * quarantine a poison job instead of handing it out again).
     * Returns false when nothing is claimable right now.
     */
    bool claim(const std::string &worker, std::int64_t now,
               double lease_seconds, LeaseClaim &out);

    /** Renew a lease. Returns false when the lease was lost (the
     *  caller must abandon the job: someone else owns it now). */
    bool heartbeat(const LeaseClaim &c, std::int64_t now,
                   double lease_seconds);

    /** Commit a result. Returns false when the lease was lost (the
     *  result is discarded; the new owner will produce it). */
    bool complete(const LeaseClaim &c, const std::string &payload);

    /**
     * Commit a failure (advances the attempt number). Quarantines
     * the job when the failure is permanent or the attempt budget
     * is exhausted. Returns false when the lease was lost.
     */
    bool fail(const LeaseClaim &c, const std::string &fail_class,
              const std::string &detail, bool transient,
              std::int64_t now);

    /** Give a lease back unconsumed (graceful shutdown): the job
     *  returns to pending without an attempt or lease-loss mark. */
    void release(const LeaseClaim &c);

    /** Re-read records appended by other processes, then snapshot
     *  the replayed per-job state (id -> status). */
    std::map<std::string, JobStatus> snapshot();

    /** Open (pending + leased) jobs, for admission accounting. */
    unsigned openJobs();
    /** True when every job is Done or Quarantined. */
    bool drained();
    /** True when claim() could hand out a job at `now`. */
    bool hasClaimable(std::int64_t now);

  private:
    class Lock;

    std::string segmentPath(unsigned seg) const;
    void refreshLocked();
    void readSegmentLocked(unsigned seg, bool last);
    void applyLocked(const std::map<std::string, std::string> &f,
                     const std::string &where);
    void commitLocked(const std::string &bare_line);
    void startSegmentLocked(unsigned seg);
    void quarantineLocked(const std::string &job_id,
                          unsigned attempts, const std::string &cls,
                          const std::string &detail);
    JobStatus *ownedLocked(const LeaseClaim &c);

    std::string queueDir;
    std::string queueKey;
    QueueConfig cfg;
    int lockFd = -1;
    /** Replayed job state and enqueue order. */
    std::map<std::string, JobStatus> jobs;
    std::vector<std::string> order;
    /** Consumed bytes per segment number. */
    std::map<unsigned, std::uint64_t> segConsumed;
    /** Consumed records (lines) per segment (rotation trigger). */
    std::map<unsigned, unsigned> segRecords;
    /** Highest segment number (the append target). */
    unsigned lastSeg = 0;
};

} // namespace service
} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_SERVICE_QUEUE_HH

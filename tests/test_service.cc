/**
 * @file
 * Sweep-service tests: the durable job queue (lease claiming,
 * expiry reclamation, retry backoff, poison-job quarantine,
 * admission control, torn-tail recovery and corruption detection),
 * the verified content-addressed result cache, and the end-to-end
 * golden guarantee that a service-drained campaign reproduces the
 * in-process sweep's CSV byte for byte — including when served
 * entirely from the result cache.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/machine_config.hh"
#include "harness/service/queue.hh"
#include "harness/service/result_cache.hh"
#include "harness/service/service.hh"
#include "harness/sweep.hh"
#include "sim/errors.hh"

using namespace soefair;
using namespace soefair::harness;
using namespace soefair::harness::service;

namespace
{

struct TempDir
{
    explicit TempDir(const char *name)
        : path(std::string("/tmp/soefair_svc_") + name + "_" +
               std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::string path;
};

QueueJob
mkJob(const std::string &id, std::uint64_t seed = 7)
{
    QueueJob j;
    j.id = id;
    j.fingerprint = "fp-" + id;
    j.seed = seed;
    return j;
}

QueueConfig
quickQueueConfig()
{
    QueueConfig qc;
    qc.maxAttempts = 3;
    qc.backoffBaseSeconds = 0.0; // no backoff gating unless a test
                                 // opts in
    return qc;
}

} // namespace

TEST(JobQueue, EnqueueClaimCompleteDrain)
{
    TempDir td("basic");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());

    EXPECT_EQ(q.enqueue(mkJob("a")), EnqueueResult::Added);
    EXPECT_EQ(q.enqueue(mkJob("b")), EnqueueResult::Added);
    EXPECT_EQ(q.enqueue(mkJob("a")), EnqueueResult::Duplicate);
    EXPECT_EQ(q.openJobs(), 2u);
    EXPECT_FALSE(q.drained());

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    EXPECT_EQ(c.job.id, "a"); // enqueue order
    EXPECT_EQ(c.attempt, 1u);
    EXPECT_TRUE(q.complete(c, "payload-a"));

    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    EXPECT_EQ(c.job.id, "b");
    EXPECT_TRUE(q.complete(c, "payload-b"));

    EXPECT_FALSE(q.claim("w0", 1000, 60.0, c));
    EXPECT_TRUE(q.drained());

    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Done);
    EXPECT_EQ(snap.at("a").payload, "payload-a");
    EXPECT_EQ(snap.at("a").doneAttempt, 1u);
    EXPECT_EQ(snap.at("b").payload, "payload-b");
}

TEST(JobQueue, CapacityAdmissionControl)
{
    TempDir td("capacity");
    auto qc = quickQueueConfig();
    qc.capacity = 2;
    JobQueue q;
    q.open(td.path, "key1", qc);

    EXPECT_EQ(q.enqueue(mkJob("a")), EnqueueResult::Added);
    EXPECT_EQ(q.enqueue(mkJob("b")), EnqueueResult::Added);
    // Backpressure: the queue is full, the producer sees Rejected.
    EXPECT_EQ(q.enqueue(mkJob("c")), EnqueueResult::Rejected);

    // Completing a job frees a slot.
    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    EXPECT_TRUE(q.complete(c, "p"));
    EXPECT_EQ(q.enqueue(mkJob("c")), EnqueueResult::Added);
}

TEST(JobQueue, LeaseExpiryReclaimsAtTheSameAttempt)
{
    TempDir td("expiry");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c1;
    ASSERT_TRUE(q.claim("w1", 1000, 10.0, c1));
    EXPECT_EQ(c1.attempt, 1u);

    // Before expiry nothing is claimable; the lease holds.
    LeaseClaim c2;
    EXPECT_FALSE(q.hasClaimable(1005));
    EXPECT_FALSE(q.claim("w2", 1005, 10.0, c2));

    // Past expiry the job is reclaimed — at the SAME attempt number
    // (a crashed worker consumed no attempt), so the retry runs the
    // same seed and a resumed campaign stays byte-identical.
    ASSERT_TRUE(q.claim("w2", 1011, 10.0, c2));
    EXPECT_EQ(c2.attempt, 1u);
    EXPECT_EQ(c2.worker, "w2");

    // The old worker's lease is dead: heartbeat and complete are
    // refused, and its late result is discarded.
    EXPECT_FALSE(q.heartbeat(c1, 1012, 10.0));
    EXPECT_FALSE(q.complete(c1, "stale"));

    EXPECT_TRUE(q.complete(c2, "fresh"));
    EXPECT_EQ(q.snapshot().at("a").payload, "fresh");
    EXPECT_EQ(q.snapshot().at("a").leaseLosses, 1u);
}

TEST(JobQueue, HeartbeatExtendsTheLease)
{
    TempDir td("heartbeat");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w1", 1000, 10.0, c));
    EXPECT_TRUE(q.heartbeat(c, 1008, 10.0)); // expiry -> 1018

    LeaseClaim other;
    EXPECT_FALSE(q.claim("w2", 1011, 10.0, other));
    ASSERT_TRUE(q.claim("w2", 1019, 10.0, other));
    EXPECT_EQ(other.attempt, 1u);
}

TEST(JobQueue, FailedAttemptsAdvanceAndBackOff)
{
    TempDir td("backoff");
    auto qc = quickQueueConfig();
    qc.backoffBaseSeconds = 2.0;
    JobQueue q;
    q.open(td.path, "key1", qc);
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    ASSERT_TRUE(q.fail(c, "watchdog", "injected", /*transient=*/true,
                       1000));

    // Retry 1 backs off base * 2^0 = 2 s from the failure.
    EXPECT_FALSE(q.claim("w0", 1001, 60.0, c));
    ASSERT_TRUE(q.claim("w0", 1002, 60.0, c));
    EXPECT_EQ(c.attempt, 2u); // committed failure advanced it

    ASSERT_TRUE(q.fail(c, "watchdog", "injected", true, 1002));
    // Retry 2 backs off 4 s.
    EXPECT_FALSE(q.claim("w0", 1005, 60.0, c));
    ASSERT_TRUE(q.claim("w0", 1006, 60.0, c));
    EXPECT_EQ(c.attempt, 3u);
    EXPECT_TRUE(q.complete(c, "eventually"));
    EXPECT_EQ(q.snapshot().at("a").doneAttempt, 3u);
}

TEST(JobQueue, TransientFailuresQuarantineAfterMaxAttempts)
{
    TempDir td("quarantine");
    auto qc = quickQueueConfig();
    qc.maxAttempts = 2;
    JobQueue q;
    q.open(td.path, "key1", qc);
    q.enqueue(mkJob("a"));
    q.enqueue(mkJob("b"));

    LeaseClaim c;
    for (unsigned attempt = 1; attempt <= 2; ++attempt) {
        ASSERT_TRUE(q.claim("w0", 1000 + attempt, 60.0, c));
        ASSERT_EQ(c.job.id, "a");
        ASSERT_EQ(c.attempt, attempt);
        ASSERT_TRUE(
            q.fail(c, "watchdog", "injected", true, 1000 + attempt));
    }

    // Attempt budget exhausted: dead-lettered, never handed out
    // again, but the rest of the queue still drains.
    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Quarantined);
    EXPECT_EQ(snap.at("a").failClass, "watchdog");
    EXPECT_EQ(snap.at("a").failedAttempts, 2u);

    ASSERT_TRUE(q.claim("w0", 2000, 60.0, c));
    EXPECT_EQ(c.job.id, "b");
    EXPECT_TRUE(q.complete(c, "p"));
    EXPECT_TRUE(q.drained());
}

TEST(JobQueue, PermanentFailureQuarantinesImmediately)
{
    TempDir td("permanent");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    ASSERT_TRUE(
        q.fail(c, "input", "bad trace", /*transient=*/false, 1000));
    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Quarantined);
    EXPECT_EQ(snap.at("a").failClass, "input");
    EXPECT_TRUE(q.drained());
}

TEST(JobQueue, PoisonJobQuarantinedAfterRepeatedLeaseLosses)
{
    TempDir td("poison");
    auto qc = quickQueueConfig();
    qc.maxAttempts = 2;
    JobQueue q;
    q.open(td.path, "key1", qc);
    q.enqueue(mkJob("a"));

    // A poison job kills its worker every time: the worker never
    // commits a failure record, the lease just expires. After
    // maxAttempts losses the job must be quarantined, not handed
    // out forever.
    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 10.0, c));
    ASSERT_TRUE(q.claim("w1", 1011, 10.0, c)); // loss 1, reclaim
    EXPECT_FALSE(q.claim("w2", 1022, 10.0, c)); // loss 2 -> dead
    auto snap = q.snapshot();
    EXPECT_EQ(snap.at("a").phase, JobPhase::Quarantined);
    EXPECT_EQ(snap.at("a").failClass, "lease-expired");
    EXPECT_EQ(snap.at("a").leaseLosses, 2u);
    EXPECT_TRUE(q.drained());
}

TEST(JobQueue, ReleaseReturnsTheJobUnconsumed)
{
    TempDir td("release");
    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    q.enqueue(mkJob("a"));

    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    q.release(c);

    // Graceful shutdown consumed neither an attempt nor a
    // lease-loss mark.
    ASSERT_TRUE(q.claim("w1", 1001, 60.0, c));
    EXPECT_EQ(c.attempt, 1u);
    EXPECT_EQ(q.snapshot().at("a").leaseLosses, 0u);
}

TEST(JobQueue, StatePersistsAcrossReopenAndProcesses)
{
    TempDir td("persist");
    {
        auto qc = quickQueueConfig();
        qc.segmentRecords = 3; // force several segment files
        JobQueue q;
        q.open(td.path, "key1", qc);
        for (int i = 0; i < 6; ++i)
            q.enqueue(mkJob("j" + std::to_string(i)));
        LeaseClaim c;
        ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
        ASSERT_TRUE(q.complete(c, "done-j0"));
    }

    // A second JobQueue (a different worker process in production)
    // replays the same state from the segments.
    JobQueue q2;
    q2.open(td.path, "key1", quickQueueConfig());
    auto snap = q2.snapshot();
    ASSERT_EQ(snap.size(), 6u);
    EXPECT_EQ(snap.at("j0").phase, JobPhase::Done);
    EXPECT_EQ(snap.at("j0").payload, "done-j0");
    EXPECT_EQ(snap.at("j1").phase, JobPhase::Pending);
    EXPECT_EQ(q2.openJobs(), 5u);

    EXPECT_TRUE(JobQueue::exists(td.path));
    EXPECT_EQ(JobQueue::peekKey(td.path), "key1");
}

TEST(JobQueue, MismatchedKeyIsRejected)
{
    TempDir td("keycheck");
    {
        JobQueue q;
        q.open(td.path, "key1", quickQueueConfig());
        q.enqueue(mkJob("a"));
    }
    JobQueue q2;
    EXPECT_THROW(q2.open(td.path, "other-key", quickQueueConfig()),
                 CheckpointError);
}

TEST(JobQueue, TornTailIsTruncatedNotFatal)
{
    TempDir td("torntail");
    std::string seg;
    {
        JobQueue q;
        q.open(td.path, "key1", quickQueueConfig());
        q.enqueue(mkJob("a"));
        q.enqueue(mkJob("b"));
    }
    // Simulate a worker SIGKILLed mid-append: a partial record with
    // no terminating newline at the end of the last segment.
    seg = td.path + "/queue-000001.jsonl";
    {
        std::ofstream os(seg, std::ios::app | std::ios::binary);
        os << "{\"op\":\"lease\",\"job\":\"a\",\"wor";
    }

    JobQueue q;
    q.open(td.path, "key1", quickQueueConfig());
    auto snap = q.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // The torn record was never acted on; dropping it loses nothing.
    EXPECT_EQ(snap.at("a").phase, JobPhase::Pending);

    // And the queue keeps working after the truncation.
    LeaseClaim c;
    ASSERT_TRUE(q.claim("w0", 1000, 60.0, c));
    EXPECT_TRUE(q.complete(c, "p"));
}

TEST(JobQueue, SilentCorruptionRaisesCheckpointError)
{
    TempDir td("corrupt");
    {
        JobQueue q;
        q.open(td.path, "key1", quickQueueConfig());
        q.enqueue(mkJob("a"));
        q.enqueue(mkJob("b"));
    }
    // Flip one byte inside a committed (newline-terminated) record:
    // a torn tail is forgivable, silent corruption is not.
    const std::string seg = td.path + "/queue-000001.jsonl";
    std::string data;
    {
        std::ifstream is(seg, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        data = ss.str();
    }
    const auto pos = data.find("fp-a");
    ASSERT_NE(pos, std::string::npos);
    data[pos] = 'X';
    {
        std::ofstream os(seg, std::ios::binary | std::ios::trunc);
        os << data;
    }

    JobQueue q;
    EXPECT_THROW(q.open(td.path, "key1", quickQueueConfig()),
                 CheckpointError);
}

TEST(ResultCache, StoreLookupRoundtrip)
{
    TempDir td("cache");
    ResultCache cache;
    cache.open(td.path);

    std::string payload;
    EXPECT_FALSE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.store("fp1", 42, "result bytes\nwith lines");
    ASSERT_TRUE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(payload, "result bytes\nwith lines");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().stores, 1u);

    // The key is (fingerprint, seed): either half misses alone.
    EXPECT_FALSE(cache.lookup("fp1", 43, payload));
    EXPECT_FALSE(cache.lookup("fp2", 42, payload));
}

TEST(ResultCache, EmptyPayloadRoundtrips)
{
    TempDir td("cache_empty");
    ResultCache cache;
    cache.open(td.path);
    cache.store("fp", 1, "");
    std::string payload = "sentinel";
    ASSERT_TRUE(cache.lookup("fp", 1, payload));
    EXPECT_TRUE(payload.empty());
}

TEST(ResultCache, CorruptEntryIsEvictedAndResimulated)
{
    TempDir td("cache_corrupt");
    ResultCache cache;
    cache.open(td.path);
    cache.store("fp1", 42, "good payload");

    // Flip a payload byte on disk: the checksum must catch it, the
    // entry must be evicted, and the caller re-simulates.
    const std::string path = cache.entryPath("fp1", 42);
    std::string data;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        data = ss.str();
    }
    data[data.size() - 3] ^= 0x20;
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << data;
    }

    std::string payload;
    EXPECT_FALSE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(cache.stats().corruptEvictions, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));

    // A truncated entry is caught the same way.
    cache.store("fp1", 42, "good payload");
    std::filesystem::resize_file(cache.entryPath("fp1", 42), 20);
    EXPECT_FALSE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(cache.stats().corruptEvictions, 2u);

    // After eviction a fresh store serves again.
    cache.store("fp1", 42, "good payload");
    ASSERT_TRUE(cache.lookup("fp1", 42, payload));
    EXPECT_EQ(payload, "good payload");
}

namespace
{

RunConfig
tinyRun()
{
    RunConfig rc;
    rc.warmupInstrs = 20 * 1000;
    rc.timingWarmInstrs = 5 * 1000;
    rc.measureInstrs = 20 * 1000;
    return rc;
}

CampaignManifest
tinyManifest()
{
    CampaignManifest m;
    m.pairs = {{"gcc", "eon"}};
    m.levels = {0.0, 0.5};
    m.rc = tinyRun();
    return m;
}

ServiceConfig
quickServiceConfig(const std::string &queue_dir,
                   const std::string &cache_dir)
{
    ServiceConfig cfg;
    cfg.queueDir = queue_dir;
    cfg.cacheDir = cache_dir;
    cfg.deadlineSeconds = 120.0;
    cfg.leaseSeconds = 120.0;
    cfg.backoffBaseSeconds = 0.01;
    cfg.pollSeconds = 0.05;
    return cfg;
}

} // namespace

TEST(SweepService, ManifestRoundtrips)
{
    TempDir td("manifest");
    std::filesystem::create_directory(td.path);
    CampaignManifest m = tinyManifest();
    writeManifest(td.path, m);
    CampaignManifest back = loadManifest(td.path);
    ASSERT_EQ(back.pairs.size(), 1u);
    EXPECT_EQ(back.pairs[0].first, "gcc");
    EXPECT_EQ(back.pairs[0].second, "eon");
    ASSERT_EQ(back.levels.size(), 2u);
    EXPECT_EQ(back.levels[1], 0.5);
    EXPECT_EQ(back.rc.measureInstrs, m.rc.measureInstrs);

    // The rebuilt campaign is configuration-identical.
    EXPECT_EQ(campaignFromManifest(back).journalKey(),
              campaignFromManifest(m).journalKey());

    // A flipped manifest byte is detected, not parsed.
    const std::string path = td.path + "/manifest.jsonl";
    std::string data;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        data = ss.str();
    }
    const auto pos = data.find("gcc");
    ASSERT_NE(pos, std::string::npos);
    data[pos] = 'x';
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << data;
    }
    EXPECT_THROW(loadManifest(td.path), CheckpointError);
}

TEST(SweepService, DrainMatchesInProcessSweepAndCacheServesRerun)
{
    const CampaignManifest m = tinyManifest();

    // In-process reference (the pre-service sweep path).
    EvaluationSweep sweep(MachineConfig::benchDefault(), m.rc);
    std::vector<PairResult> ref = {
        sweep.runPair("gcc", "eon", m.levels)};
    std::ostringstream refCsv;
    writePairResultsCsv(refCsv, ref);

    TempDir queue("e2e_q");
    TempDir cache("e2e_c");
    {
        SweepService svc(quickServiceConfig(queue.path, cache.path));
        auto eq = svc.enqueueCampaign(m);
        EXPECT_EQ(eq.added, 4u); // 2 baselines + 2 SOE cells
        auto ws = svc.serve();
        EXPECT_EQ(ws.completed, 4u);
        EXPECT_EQ(ws.fromCache, 0u);
        EXPECT_EQ(ws.failed, 0u);

        auto agg = svc.aggregate();
        ASSERT_TRUE(agg.complete());
        std::ostringstream csv;
        writeCampaignCsv(csv, agg);
        EXPECT_EQ(refCsv.str(), csv.str());
    }

    // A second, identical campaign in a fresh queue must be served
    // entirely from the content-addressed cache — and still produce
    // byte-identical CSV.
    TempDir queue2("e2e_q2");
    {
        SweepService svc(quickServiceConfig(queue2.path, cache.path));
        svc.enqueueCampaign(m);
        auto ws = svc.serve();
        EXPECT_EQ(ws.completed, 4u);
        EXPECT_EQ(ws.fromCache, 4u);

        auto agg = svc.aggregate();
        ASSERT_TRUE(agg.complete());
        std::ostringstream csv;
        writeCampaignCsv(csv, agg);
        EXPECT_EQ(refCsv.str(), csv.str());
    }
}

TEST(SweepService, QuarantinedJobSurfacesAsExplicitMissingCell)
{
    CampaignManifest m = tinyManifest();
    m.levels = {0.0};

    TempDir queue("missing_q");
    auto cfg = quickServiceConfig(queue.path, "");
    SweepService svc(cfg);
    svc.setAttemptHook([](const std::string &id, unsigned) {
        if (id.rfind("soe:", 0) == 0)
            raiseError<InputError>("injected");
    });
    svc.enqueueCampaign(m);
    auto ws = svc.serve();
    EXPECT_EQ(ws.completed, 2u); // the baselines
    EXPECT_EQ(ws.failed, 1u);

    auto agg = svc.aggregate();
    EXPECT_FALSE(agg.complete());
    ASSERT_EQ(agg.missing.size(), 1u);
    EXPECT_EQ(agg.missing[0].pair, "gcc:eon");
    EXPECT_EQ(agg.missing[0].what, "F=0");
    EXPECT_EQ(agg.missing[0].reason, "input after 1 attempt(s)");
    EXPECT_EQ(agg.exitCode(), exitCampaignFailed);

    std::ostringstream csv;
    writeCampaignCsv(csv, agg);
    EXPECT_NE(csv.str().find(
                  "MISSING(gcc:eon,F=0,input after 1 attempt(s))"),
              std::string::npos);
}

TEST(SweepService, StopFlagDrainsGracefullyAndResumeFinishes)
{
    CampaignManifest m = tinyManifest();
    m.levels = {0.0};

    TempDir queue("stop_q");
    TempDir cache("stop_c");

    // A pre-set stop flag: the worker shuts down before claiming
    // anything — every job stays pending at attempt 1.
    static volatile std::sig_atomic_t stop = 1;
    auto cfg = quickServiceConfig(queue.path, cache.path);
    cfg.stopFlag = &stop;
    {
        SweepService svc(cfg);
        svc.enqueueCampaign(m);
        auto ws = svc.serve();
        EXPECT_TRUE(ws.stopped);
        EXPECT_EQ(ws.completed, 0u);
    }
    {
        // Aggregating a stopped campaign reports the gaps instead of
        // silently dropping cells.
        SweepService svc(cfg);
        auto agg = svc.aggregate();
        EXPECT_FALSE(agg.complete());
        EXPECT_EQ(agg.missing.size(), 3u); // 2 ST + 1 SOE cell
    }

    // Clearing the flag and serving again finishes the campaign.
    stop = 0;
    SweepService svc(cfg);
    auto ws = svc.serve();
    EXPECT_FALSE(ws.stopped);
    EXPECT_EQ(ws.completed, 3u);
    auto agg = svc.aggregate();
    EXPECT_TRUE(agg.complete());
}

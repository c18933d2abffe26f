/**
 * @file
 * Write-ahead JSONL journal for the sweep supervisor.
 *
 * The supervisor records every job state transition
 * (`pending -> running -> done/failed`) as one JSON line, fsync'd
 * before the transition is acted upon, so a campaign killed at any
 * instant can be resumed from the journal: jobs with a `done` record
 * are skipped (their result payload is replayed from the journal),
 * everything else is re-run.
 *
 * File format (one object per line, flat string/number fields only;
 * every line is sealed with a trailing CRC-32 member, see
 * harness/jsonl.hh):
 *
 *   {"journal":"soefair-sweep","v":2,"key":"<fingerprint>","crc":N}
 *   {"job":"st:gcc:123","state":"running","attempt":1,"crc":N}
 *   {"job":"st:gcc:123","state":"done","attempt":1,"payload":"...",
 *    "crc":N}
 *   {"job":"soe:a:b:F=1","state":"failed","attempt":3,
 *    "class":"watchdog","detail":"...","crc":N}
 *
 * Corruption is a defined failure: a journal whose header, version
 * or key does not match, that contains duplicate `done` records,
 * unknown job ids, a malformed line, or a line whose checksum does
 * not match raises `CheckpointError` (exit 13), never UB — a
 * silently bit-flipped payload can no longer be parsed as a valid
 * record. The single exception is a *torn tail* — a final line
 * without a trailing newline, exactly what a SIGKILL mid-append
 * leaves behind — which resume-mode loading drops with a warning
 * while strict loading still raises.
 *
 * A journal has one writer at a time: JournalWriter holds an
 * exclusive flock(2) on the file from open to close, so a second
 * process pointed at the same journal waits instead of interleaving
 * its appends.
 */

#ifndef SOEFAIR_HARNESS_JOURNAL_HH
#define SOEFAIR_HARNESS_JOURNAL_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>


namespace soefair
{
namespace harness
{

/** Journal format version (CRC-sealed lines); the only one read. */
constexpr int journalVersion = 2;

/** One job state transition. */
struct JournalRecord
{
    std::string job;
    /** "running" | "done" | "failed" */
    std::string state;
    /** 1-based attempt that made the transition. */
    unsigned attempt = 0;
    /** done: the job's result payload. */
    std::string payload;
    /** failed: failure class (see supervisor). */
    std::string errClass;
    /** failed: human-readable diagnostic. */
    std::string detail;
};

/**
 * Append-only journal writer. Every append is written with a single
 * write(2) and fsync'd before returning (write-ahead: the record is
 * durable before the supervisor acts on the transition). The writer
 * holds an exclusive flock(2) on the file until close(), taken
 * before it truncates or reads anything; opening a journal another
 * process is writing blocks until that writer closes.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Lock `path` (creating it if absent), truncate it and write
     *  the header line. */
    void create(const std::string &path, const std::string &key);

    /** Lock an existing journal without changing it, so it can be
     *  loaded and validated before openAppend(). */
    void lock(const std::string &path);

    /**
     * Open an existing journal for appending (resume), locking it
     * first unless lock() already did. A torn final line (kill
     * mid-append) is truncated away — appending straight after the
     * fragment would merge two records into one malformed line and
     * poison the *next* resume.
     */
    void openAppend(const std::string &path);

    void append(const JournalRecord &rec);
    void close();
    bool isOpen() const { return fd >= 0; }
    const std::string &path() const { return filePath; }

  private:
    void lockedOpen(const std::string &path, int flags);
    void writeLine(const std::string &line);

    int fd = -1;
    std::string filePath;
};

/** Parsed journal contents, reduced to per-job final state. */
struct JournalState
{
    std::string key;
    /** Jobs with a committed `done` record (id -> record). */
    std::map<std::string, JournalRecord> done;
    /** Jobs whose *latest* record is `failed` (id -> record). */
    std::map<std::string, JournalRecord> failed;
    /** Attempts started per job (max attempt seen in any record);
     *  the supervisor runs a resumed job as the next one. */
    std::map<std::string, unsigned> attempts;
};

/**
 * Load and validate a journal.
 *
 * @param expected_key  Raises CheckpointError when the journal's key
 *        differs (it was written by a different configuration).
 * @param tolerate_torn_tail  Resume mode: a final line without a
 *        trailing newline (torn by a kill mid-append) is dropped
 *        with a warning instead of raising.
 * @param known_jobs  When non-null, any record naming a job id not
 *        in this set raises CheckpointError.
 *
 * All other corruption (missing/garbage header, version mismatch,
 * malformed interior line, duplicate `done`, `done` out of thin air
 * for the same job twice) raises CheckpointError.
 */
JournalState loadJournal(const std::string &path,
                         const std::string &expected_key,
                         bool tolerate_torn_tail,
                         const std::set<std::string> *known_jobs
                             = nullptr);

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_JOURNAL_HH

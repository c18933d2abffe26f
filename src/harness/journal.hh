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
 * since v2 every line is sealed with a trailing CRC-32 member, see
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
 * unknown job ids, a malformed line, or (v2) a line whose checksum
 * does not match raises `CheckpointError` (exit 13), never UB — a
 * silently bit-flipped payload can no longer be parsed as a valid
 * record. The single exception is a *torn tail* — a final line
 * without a trailing newline, exactly what a SIGKILL mid-append
 * leaves behind — which resume-mode loading drops with a warning
 * while strict loading still raises. v1 journals (no CRC members)
 * are still read for backward compatibility; new journals are
 * always written as v2.
 */

// detlint: conc-optin — journal state crosses the fork boundary;
// members carry ownership-domain tags (CONC-001, see
// src/sim/annotations.hh).

#ifndef SOEFAIR_HARNESS_JOURNAL_HH
#define SOEFAIR_HARNESS_JOURNAL_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "sim/annotations.hh"

namespace soefair
{
namespace harness
{

/** Journal format version written by this build (CRC-sealed). */
constexpr int journalVersion = 2;
/** Oldest journal format version still accepted on read. */
constexpr int journalCompatVersion = 1;

/** One job state transition. */
struct JournalRecord
{
    std::string job SOE_THREAD_OWNED(supervisor);
    /** "running" | "done" | "failed" */
    std::string state SOE_THREAD_OWNED(supervisor);
    /** 1-based attempt that made the transition. */
    unsigned attempt SOE_THREAD_OWNED(supervisor) = 0;
    /** done: the job's result payload. */
    std::string payload SOE_THREAD_OWNED(supervisor);
    /** failed: failure class (see supervisor). */
    std::string errClass SOE_THREAD_OWNED(supervisor);
    /** failed: human-readable diagnostic. */
    std::string detail SOE_THREAD_OWNED(supervisor);
};

/**
 * Append-only journal writer. Every append is written with a single
 * write(2) and fsync'd before returning (write-ahead: the record is
 * durable before the supervisor acts on the transition).
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();
    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Create/truncate `path` and write the header line. */
    void create(const std::string &path, const std::string &key);

    /**
     * Open an existing journal for appending (resume). A torn final
     * line (kill mid-append) is truncated away first — appending
     * straight after the fragment would merge two records into one
     * malformed line and poison the *next* resume.
     */
    void openAppend(const std::string &path);

    void append(const JournalRecord &rec);
    void close();
    bool isOpen() const { return fd >= 0; }
    const std::string &path() const { return filePath; }

  private:
    void writeLine(const std::string &line);

    int fd SOE_THREAD_OWNED(supervisor) = -1;
    std::string filePath SOE_THREAD_OWNED(supervisor);
};

/** Parsed journal contents, reduced to per-job final state. */
struct JournalState
{
    std::string key SOE_THREAD_OWNED(supervisor);
    /** Jobs with a committed `done` record (id -> record). */
    std::map<std::string, JournalRecord>
        done SOE_THREAD_OWNED(supervisor);
    /** Jobs whose *latest* record is `failed` (id -> record). */
    std::map<std::string, JournalRecord>
        failed SOE_THREAD_OWNED(supervisor);
    /** Attempts started per job (max attempt seen in any record). */
    std::map<std::string, unsigned>
        attempts SOE_THREAD_OWNED(supervisor);
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

/** Escape a string for embedding in a journal JSON line. */
std::string journalEscape(const std::string &s);

} // namespace harness
} // namespace soefair

#endif // SOEFAIR_HARNESS_JOURNAL_HH

#include "harness/journal.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "harness/jsonl.hh"
#include "sim/errors.hh"
#include "sim/logging.hh"

namespace soefair
{
namespace harness
{

namespace
{

unsigned
parseAttempt(const std::map<std::string, std::string> &fields,
             const std::string &path)
{
    auto it = fields.find("attempt");
    if (it == fields.end())
        return 0;
    char *end = nullptr;
    unsigned long v = std::strtoul(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
        raiseError<CheckpointError>("journal '", path,
                                    "': bad attempt '", it->second,
                                    "'");
    }
    return unsigned(v);
}

std::string
field(const std::map<std::string, std::string> &fields,
      const char *name)
{
    auto it = fields.find(name);
    return it == fields.end() ? std::string() : it->second;
}

} // namespace

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::lockedOpen(const std::string &path, int flags)
{
    close();
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC | flags,
                0644);
    if (fd < 0) {
        raiseError<CheckpointError>("cannot open journal '", path,
                                    "': ", std::strerror(errno));
    }
    // One writer per journal: a second campaign on the same file
    // waits here until the first closes it, then sees its records.
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
        if (errno == EWOULDBLOCK) {
            warn("journal '", path, "' is in use by another ",
                 "process; waiting for it to finish");
        }
        int rc;
        while ((rc = ::flock(fd, LOCK_EX)) != 0 && errno == EINTR) {
        }
        if (rc != 0) {
            const int err = errno;
            ::close(fd);
            fd = -1;
            raiseError<CheckpointError>("cannot lock journal '", path,
                                        "': ", std::strerror(err));
        }
    }
    filePath = path;
}

void
JournalWriter::create(const std::string &path, const std::string &key)
{
    lockedOpen(path, O_CREAT);
    if (::ftruncate(fd, 0) != 0) {
        raiseError<CheckpointError>("cannot truncate journal '", path,
                                    "': ", std::strerror(errno));
    }
    std::ostringstream os;
    os << "{\"journal\":\"soefair-sweep\",\"v\":" << journalVersion
       << ",\"key\":\"" << jsonlEscape(key) << "\"}";
    writeLine(jsonlSealLine(os.str()));
}

void
JournalWriter::lock(const std::string &path)
{
    lockedOpen(path, 0);
}

void
JournalWriter::openAppend(const std::string &path)
{
    if (fd < 0 || filePath != path)
        lockedOpen(path, 0);
    // A kill mid-append can leave a torn final line; appending
    // directly after the fragment would merge two records into one
    // malformed line and break the *next* resume. Resume-mode
    // loading would drop the fragment, so cut it off here too.
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    if (!text.empty() && text.back() != '\n') {
        const std::size_t nl = text.rfind('\n');
        const std::size_t keep = nl == std::string::npos ? 0 : nl + 1;
        warn("journal '", path, "': truncating torn final line (",
             text.size() - keep, " bytes) before append");
        if (::ftruncate(fd, off_t(keep)) != 0) {
            raiseError<CheckpointError>(
                "journal '", path, "': cannot truncate torn tail: ",
                std::strerror(errno));
        }
    }
}

void
JournalWriter::writeLine(const std::string &line)
{
    soefair_assert(fd >= 0, "journal write on closed journal");
    std::string buf = line + "\n";
    const char *p = buf.data();
    std::size_t left = buf.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            raiseError<CheckpointError>("journal '", filePath,
                                        "' write failed: ",
                                        std::strerror(errno));
        }
        p += n;
        left -= std::size_t(n);
    }
    // Write-ahead: the record must be durable before the supervisor
    // acts on the transition it describes.
    if (::fsync(fd) != 0 && errno != EINVAL && errno != EROFS) {
        raiseError<CheckpointError>("journal '", filePath,
                                    "' fsync failed: ",
                                    std::strerror(errno));
    }
}

void
JournalWriter::append(const JournalRecord &rec)
{
    std::ostringstream os;
    os << "{\"job\":\"" << jsonlEscape(rec.job) << "\",\"state\":\""
       << jsonlEscape(rec.state) << "\",\"attempt\":" << rec.attempt;
    if (!rec.payload.empty() || rec.state == "done")
        os << ",\"payload\":\"" << jsonlEscape(rec.payload) << "\"";
    if (!rec.errClass.empty())
        os << ",\"class\":\"" << jsonlEscape(rec.errClass) << "\"";
    if (!rec.detail.empty())
        os << ",\"detail\":\"" << jsonlEscape(rec.detail) << "\"";
    os << "}";
    writeLine(jsonlSealLine(os.str()));
}

void
JournalWriter::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    filePath.clear();
}

JournalState
loadJournal(const std::string &path, const std::string &expected_key,
            bool tolerate_torn_tail,
            const std::set<std::string> *known_jobs)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        raiseError<CheckpointError>("cannot read journal '", path,
                                    "'");
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();
    if (text.empty())
        raiseError<CheckpointError>("journal '", path, "' is empty");

    // Split into lines, remembering whether the final line was
    // newline-terminated (a torn tail is not).
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    const bool lastTerminated = text.back() == '\n';

    JournalState st;
    std::map<std::string, std::string> fields;

    // Every line carries a CRC member, verified before the line is
    // trusted (the header's after its version, for a clearer error).
    for (std::size_t li = 0; li < lines.size(); ++li) {
        const bool isTornTail =
            li + 1 == lines.size() && !lastTerminated;
        if (li > 0 && !jsonlVerifyLine(lines[li])) {
            if (isTornTail && tolerate_torn_tail) {
                warn("journal '", path, "': dropping torn final ",
                     "line (", lines[li].size(), " bytes)");
                break;
            }
            raiseError<CheckpointError>(
                "journal '", path, "': checksum mismatch at line ",
                li + 1,
                isTornTail ? " (torn tail; pass --resume to recover)"
                           : " (silent corruption)");
        }
        if (!jsonlParseLine(lines[li], fields)) {
            if (isTornTail && tolerate_torn_tail) {
                warn("journal '", path, "': dropping torn final ",
                     "line (", lines[li].size(), " bytes)");
                break;
            }
            raiseError<CheckpointError>(
                "journal '", path, "': malformed line ", li + 1,
                isTornTail ? " (torn tail; pass --resume to recover)"
                           : "");
        }

        if (li == 0) {
            if (field(fields, "journal") != "soefair-sweep") {
                raiseError<CheckpointError>("journal '", path,
                                            "': missing header");
            }
            const std::string v = field(fields, "v");
            if (v != std::to_string(journalVersion)) {
                raiseError<CheckpointError>(
                    "journal '", path, "': version '", v,
                    "' is not the supported version ",
                    journalVersion);
            }
            if (!jsonlVerifyLine(lines[li])) {
                raiseError<CheckpointError>(
                    "journal '", path,
                    "': header checksum mismatch");
            }
            st.key = field(fields, "key");
            if (st.key != expected_key) {
                raiseError<CheckpointError>(
                    "journal '", path, "': key mismatch\n  journal: ",
                    st.key, "\n  expected: ", expected_key);
            }
            continue;
        }

        const std::string job = field(fields, "job");
        const std::string state = field(fields, "state");
        if (job.empty() || state.empty()) {
            raiseError<CheckpointError>("journal '", path,
                                        "': record without job/state",
                                        " at line ", li + 1);
        }
        if (known_jobs && !known_jobs->count(job)) {
            raiseError<CheckpointError>(
                "journal '", path, "': unknown job id '", job,
                "' (journal belongs to a different campaign?)");
        }

        JournalRecord rec;
        rec.job = job;
        rec.state = state;
        rec.attempt = parseAttempt(fields, path);
        rec.payload = field(fields, "payload");
        rec.errClass = field(fields, "class");
        rec.detail = field(fields, "detail");

        auto &att = st.attempts[job];
        att = std::max(att, rec.attempt);

        if (state == "running") {
            continue;
        } else if (state == "done") {
            if (st.done.count(job)) {
                raiseError<CheckpointError>(
                    "journal '", path, "': duplicate done record ",
                    "for job '", job, "' at line ", li + 1);
            }
            st.done.emplace(job, std::move(rec));
            st.failed.erase(job);
        } else if (state == "failed") {
            if (st.done.count(job)) {
                raiseError<CheckpointError>(
                    "journal '", path, "': job '", job,
                    "' failed after done at line ", li + 1);
            }
            st.failed[job] = std::move(rec);
        } else {
            raiseError<CheckpointError>("journal '", path,
                                        "': unknown state '", state,
                                        "' at line ", li + 1);
        }
    }
    return st;
}

} // namespace harness
} // namespace soefair

#include "harness/supervisor.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <iostream>

#include "sim/errors.hh"
#include "sim/logging.hh"
#include "workload/inst_stream.hh"

namespace soefair
{
namespace harness
{

namespace
{

using Clock = std::chrono::steady_clock;

void
sleepMs(unsigned ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = long(ms % 1000) * 1000000L;
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

void
writeAll(int fd, const std::string &data)
{
    const char *p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // parent gone; the child is about to _exit
        }
        p += n;
        left -= std::size_t(n);
    }
}

/** A forked attempt in flight. */
struct Child
{
    pid_t pid = -1;
    std::size_t jobIdx = 0;
    unsigned attempt = 0;
    int pipeFd = -1;
    Clock::time_point start;
    bool deadlineKilled = false;
    std::string payload;
};

/** An attempt waiting for a slot. */
struct Pending
{
    std::size_t jobIdx = 0;
    unsigned attempt = 1;
};

} // namespace

std::string
SweepSupervisor::classifyStatus(int status, bool deadline_kill)
{
    if (WIFSIGNALED(status))
        return deadline_kill ? "deadline" : "signal";
    if (!WIFEXITED(status))
        return "exit";
    const int code = WEXITSTATUS(status);
    if (const char *kind = simErrorKindNameForExit(code))
        return kind;
    switch (code) {
      case 0: return "";
      case 1: return "fatal";
      case 2: return "usage";
      case 3: return "panic";
      default: return "exit";
    }
}

std::vector<JobOutcome>
SweepSupervisor::run(const std::vector<SupervisorJob> &jobs,
                     JournalWriter *journal,
                     const JournalState *prior)
{
    const unsigned slots = std::max(1u, cfg.jobSlots);

    std::vector<JobOutcome> outcomes(jobs.size());
    std::deque<Pending> pending;
    std::vector<Child> running;

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        outcomes[i].id = jobs[i].id;
        unsigned attempt = 1;
        if (prior) {
            auto it = prior->done.find(jobs[i].id);
            if (it != prior->done.end()) {
                outcomes[i].done = true;
                outcomes[i].fromJournal = true;
                outcomes[i].payload = it->second.payload;
                outcomes[i].attempts = std::max(1u,
                                                it->second.attempt);
                if (cfg.progress) {
                    logging::printLine(
                        *cfg.progress,
                        "[supervisor] " + jobs[i].id +
                            ": replayed from journal");
                }
                continue;
            }
            auto att = prior->attempts.find(jobs[i].id);
            if (att != prior->attempts.end())
                attempt = att->second + 1;
        }
        pending.push_back({i, attempt});
    }

    auto journalAppend = [&](const JournalRecord &rec) {
        if (journal && journal->isOpen())
            journal->append(rec);
    };

    auto finishFailed = [&](std::size_t idx, unsigned attempt,
                            const std::string &cls,
                            const std::string &detail) {
        outcomes[idx].done = false;
        outcomes[idx].failClass = cls;
        outcomes[idx].detail = detail;
        outcomes[idx].attempts = attempt;
        JournalRecord rec;
        rec.job = jobs[idx].id;
        rec.state = "failed";
        rec.attempt = attempt;
        rec.errClass = cls;
        rec.detail = detail;
        journalAppend(rec);
        if (cfg.progress) {
            logging::printLine(
                *cfg.progress,
                logging::formatMessage(
                    "[supervisor] ", jobs[idx].id, ": FAILED (", cls,
                    ", ", detail, ") after ", attempt,
                    " attempt(s)"));
        }
    };

    auto launch = [&](const Pending &p) {
        const SupervisorJob &job = jobs[p.jobIdx];
        JournalRecord rec;
        rec.job = job.id;
        rec.state = "running";
        rec.attempt = p.attempt;
        journalAppend(rec);
        if (cfg.progress) {
            logging::printLine(
                *cfg.progress,
                logging::formatMessage("[supervisor] ", job.id,
                                       ": attempt ", p.attempt));
        }

        int fds[2];
        if (pipe(fds) != 0) {
            finishFailed(p.jobIdx, p.attempt, "fork",
                         std::string("pipe: ") +
                             std::strerror(errno));
            return;
        }
        // Don't let the child inherit (and replay) buffered output.
        std::cout.flush();
        std::cerr.flush();
        if (cfg.progress)
            cfg.progress->flush();

        // The child inherits only the forking thread: a stream whose
        // producer is alive here would wait on it forever there.
        soefair_assert(workload::InstStream::liveProducers() == 0,
                       "fork with ", workload::InstStream::liveProducers(),
                       " instruction-stream producer(s) alive");
        pid_t pid = fork();
        if (pid < 0) {
            ::close(fds[0]);
            ::close(fds[1]);
            finishFailed(p.jobIdx, p.attempt, "fork",
                         std::string("fork: ") +
                             std::strerror(errno));
            return;
        }
        if (pid == 0) {
            // Child: run the job body, ship the payload through the
            // pipe, and _exit with the SimError taxonomy's code. It
            // drops its copy of the journal descriptor first, so a
            // child that outlives a killed supervisor does not keep
            // the journal locked.
            ::close(fds[0]);
            if (journal)
                journal->close();
            int code = 0;
            std::string payload;
            try {
                payload = job.run(p.attempt);
            } catch (const SimError &e) {
                code = e.exitCode();
            } catch (const FatalError &) {
                code = 1;
            } catch (...) {
                code = 3;
            }
            if (code == 0)
                writeAll(fds[1], payload);
            ::close(fds[1]);
            // _exit, not exit: never run the parent's atexit state.
            _exit(code);
        }

        ::close(fds[1]);
        int fl = fcntl(fds[0], F_GETFL, 0);
        fcntl(fds[0], F_SETFL, fl | O_NONBLOCK);
        Child c;
        c.pid = pid;
        c.jobIdx = p.jobIdx;
        c.attempt = p.attempt;
        c.pipeFd = fds[0];
        c.start = Clock::now();
        running.push_back(std::move(c));
    };

    auto drainPipe = [](Child &c) {
        char buf[4096];
        for (;;) {
            ssize_t n = ::read(c.pipeFd, buf, sizeof(buf));
            if (n > 0) {
                c.payload.append(buf, std::size_t(n));
                continue;
            }
            break; // EOF, EAGAIN or error: nothing more right now
        }
    };

    auto handleExit = [&](Child &c, int status) {
        drainPipe(c);
        ::close(c.pipeFd);
        const std::string cls =
            classifyStatus(status, c.deadlineKilled);
        if (cls.empty()) {
            outcomes[c.jobIdx].done = true;
            outcomes[c.jobIdx].payload = std::move(c.payload);
            outcomes[c.jobIdx].attempts = c.attempt;
            JournalRecord rec;
            rec.job = jobs[c.jobIdx].id;
            rec.state = "done";
            rec.attempt = c.attempt;
            rec.payload = outcomes[c.jobIdx].payload;
            journalAppend(rec);
            if (cfg.progress) {
                logging::printLine(*cfg.progress,
                                   "[supervisor] " +
                                       jobs[c.jobIdx].id + ": done");
            }
            return;
        }

        std::string detail;
        if (WIFEXITED(status)) {
            detail = "exit code " +
                     std::to_string(WEXITSTATUS(status));
        } else if (c.deadlineKilled) {
            detail = "deadline " +
                     std::to_string(cfg.deadlineSeconds) +
                     "s exceeded";
        } else if (WIFSIGNALED(status)) {
            detail = "signal " + std::to_string(WTERMSIG(status));
        } else {
            detail = "status " + std::to_string(status);
        }
        finishFailed(c.jobIdx, c.attempt, cls, detail);
    };

    while (!pending.empty() || !running.empty()) {
        // Launch pending attempts into free slots, in job order.
        while (running.size() < slots && !pending.empty()) {
            launch(pending.front());
            pending.pop_front();
        }
        if (running.empty())
            break; // nothing pending, and the last launches failed

        bool reaped = false;
        const auto now = Clock::now();
        for (std::size_t i = 0; i < running.size();) {
            Child &c = running[i];
            drainPipe(c);
            int status = 0;
            pid_t r = waitpid(c.pid, &status, WNOHANG);
            if (r == c.pid) {
                handleExit(c, status);
                running.erase(running.begin() + long(i));
                reaped = true;
                continue;
            }
            if (cfg.deadlineSeconds > 0 && !c.deadlineKilled &&
                std::chrono::duration<double>(now - c.start)
                        .count() > cfg.deadlineSeconds) {
                // Hard kill: the job gets no chance to mask the
                // timeout; classification happens at reap time.
                kill(c.pid, SIGKILL);
                c.deadlineKilled = true;
            }
            ++i;
        }
        if (!reaped)
            sleepMs(2);
    }
    return outcomes;
}

} // namespace harness
} // namespace soefair

/**
 * @file
 * Journal recovery tests: every corruption mode must surface as a
 * typed CheckpointError (never UB), and the single sanctioned
 * recovery — dropping a torn final line in resume mode — must work.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "harness/journal.hh"
#include "sim/errors.hh"

using namespace soefair;
using namespace soefair::harness;

namespace
{

struct TempJournal
{
    explicit TempJournal(const char *name)
        : path(std::string("/tmp/soefair_") + name + ".jsonl")
    {
        std::remove(path.c_str());
    }
    ~TempJournal() { std::remove(path.c_str()); }
    std::string path;
};

JournalRecord
rec(const std::string &job, const std::string &state,
    unsigned attempt, const std::string &payload = "")
{
    JournalRecord r;
    r.job = job;
    r.state = state;
    r.attempt = attempt;
    r.payload = payload;
    return r;
}

void
writeSample(const std::string &path, const std::string &key)
{
    JournalWriter w;
    w.create(path, key);
    w.append(rec("st:gcc:1", "running", 1));
    w.append(rec("st:gcc:1", "done", 1, "0.5 100 200 3 66.6 1"));
    w.append(rec("soe:a:b:F=0", "running", 1));
    JournalRecord f = rec("soe:a:b:F=0", "failed", 2);
    f.errClass = "watchdog";
    f.detail = "no progress";
    w.append(f);
    w.close();
}

void
appendRaw(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::app | std::ios::binary);
    os << text;
}

} // namespace

TEST(Journal, RoundTrip)
{
    TempJournal j("roundtrip");
    writeSample(j.path, "key-1");

    auto st = loadJournal(j.path, "key-1", false);
    EXPECT_EQ(st.key, "key-1");
    ASSERT_EQ(st.done.count("st:gcc:1"), 1u);
    EXPECT_EQ(st.done.at("st:gcc:1").payload, "0.5 100 200 3 66.6 1");
    ASSERT_EQ(st.failed.count("soe:a:b:F=0"), 1u);
    EXPECT_EQ(st.failed.at("soe:a:b:F=0").errClass, "watchdog");
    EXPECT_EQ(st.failed.at("soe:a:b:F=0").detail, "no progress");
    EXPECT_EQ(st.attempts.at("st:gcc:1"), 1u);
    EXPECT_EQ(st.attempts.at("soe:a:b:F=0"), 2u);
}

TEST(Journal, EscapedPayloadRoundTrips)
{
    TempJournal j("escape");
    JournalWriter w;
    w.create(j.path, "k\"ey\\with\nweird");
    w.append(rec("a", "done", 1, "pay\"load\\\n\ttricky"));
    w.close();

    auto st = loadJournal(j.path, "k\"ey\\with\nweird", false);
    EXPECT_EQ(st.done.at("a").payload, "pay\"load\\\n\ttricky");
}

TEST(Journal, TornTailStrictRaisesResumeDrops)
{
    TempJournal j("torn");
    writeSample(j.path, "k");
    // Simulate a SIGKILL mid-append: a partial record with no
    // trailing newline.
    appendRaw(j.path, "{\"job\":\"soe:a:b:F=0\",\"state\":\"do");

    EXPECT_THROW(loadJournal(j.path, "k", false), CheckpointError);

    auto st = loadJournal(j.path, "k", true);
    EXPECT_EQ(st.done.count("st:gcc:1"), 1u);
    // The torn record never committed.
    EXPECT_EQ(st.done.count("soe:a:b:F=0"), 0u);
}

TEST(Journal, MalformedInteriorLineRaisesEvenInResumeMode)
{
    TempJournal j("interior");
    writeSample(j.path, "k");
    appendRaw(j.path, "this is not json\n");
    appendRaw(j.path,
              "{\"job\":\"st:gcc:1\",\"state\":\"running\","
              "\"attempt\":2}\n");

    EXPECT_THROW(loadJournal(j.path, "k", true), CheckpointError);
}

TEST(Journal, DuplicateDoneRaises)
{
    TempJournal j("dupdone");
    JournalWriter w;
    w.create(j.path, "k");
    w.append(rec("a", "done", 1, "p1"));
    w.append(rec("a", "done", 2, "p2"));
    w.close();

    EXPECT_THROW(loadJournal(j.path, "k", false), CheckpointError);
    EXPECT_THROW(loadJournal(j.path, "k", true), CheckpointError);
}

TEST(Journal, FailedThenDoneIsALegalResume)
{
    TempJournal j("faildone");
    JournalWriter w;
    w.create(j.path, "k");
    JournalRecord f = rec("a", "failed", 3);
    f.errClass = "deadline";
    w.append(f);
    w.append(rec("a", "running", 1));
    w.append(rec("a", "done", 1, "p"));
    w.close();

    auto st = loadJournal(j.path, "k", false);
    EXPECT_EQ(st.done.at("a").payload, "p");
    EXPECT_EQ(st.failed.count("a"), 0u);
}

TEST(Journal, DoneThenFailedRaises)
{
    TempJournal j("donefail");
    JournalWriter w;
    w.create(j.path, "k");
    w.append(rec("a", "done", 1, "p"));
    JournalRecord f = rec("a", "failed", 1);
    f.errClass = "signal";
    w.append(f);
    w.close();

    EXPECT_THROW(loadJournal(j.path, "k", false), CheckpointError);
}

TEST(Journal, UnknownJobIdRaises)
{
    TempJournal j("unknown");
    writeSample(j.path, "k");

    std::set<std::string> known = {"st:gcc:1"};
    EXPECT_THROW(loadJournal(j.path, "k", false, &known),
                 CheckpointError);

    known.insert("soe:a:b:F=0");
    EXPECT_NO_THROW(loadJournal(j.path, "k", false, &known));
}

TEST(Journal, VersionMismatchRaises)
{
    // An unknown future version, and v1: its unchecksummed lines
    // would bypass CRC verification, so it is no longer read.
    for (const char *version : {"999", "1"}) {
        SCOPED_TRACE(std::string("v=") + version);
        TempJournal j("version");
        {
            std::ofstream os(j.path);
            os << "{\"journal\":\"soefair-sweep\",\"v\":" << version
               << ",\"key\":\"k\"}\n"
               << "{\"job\":\"a\",\"state\":\"done\",\"attempt\":1,"
               << "\"payload\":\"p1\"}\n";
        }
        EXPECT_THROW(loadJournal(j.path, "k", false), CheckpointError);
        EXPECT_THROW(loadJournal(j.path, "k", true), CheckpointError);
    }
}

TEST(Journal, KeyMismatchRaises)
{
    TempJournal j("key");
    writeSample(j.path, "config-A");
    EXPECT_THROW(loadJournal(j.path, "config-B", false),
                 CheckpointError);
    EXPECT_NO_THROW(loadJournal(j.path, "config-A", false));
}

TEST(Journal, MissingHeaderRaises)
{
    TempJournal j("noheader");
    {
        std::ofstream os(j.path);
        os << "{\"job\":\"a\",\"state\":\"running\",\"attempt\":1}"
           << "\n";
    }
    EXPECT_THROW(loadJournal(j.path, "k", false), CheckpointError);
}

TEST(Journal, MissingOrEmptyFileRaises)
{
    EXPECT_THROW(loadJournal("/nonexistent/x.jsonl", "k", true),
                 CheckpointError);
    TempJournal j("empty");
    { std::ofstream os(j.path); }
    EXPECT_THROW(loadJournal(j.path, "k", true), CheckpointError);
}

TEST(Journal, UnknownStateRaises)
{
    TempJournal j("state");
    writeSample(j.path, "k");
    appendRaw(j.path,
              "{\"job\":\"st:gcc:1\",\"state\":\"zombie\","
              "\"attempt\":1}\n");
    EXPECT_THROW(loadJournal(j.path, "k", false), CheckpointError);
}

TEST(Journal, AppendModeResumesExistingFile)
{
    TempJournal j("appendmode");
    writeSample(j.path, "k");

    JournalWriter w;
    w.openAppend(j.path);
    w.append(rec("soe:a:b:F=0", "done", 3, "late"));
    w.close();

    auto st = loadJournal(j.path, "k", false);
    EXPECT_EQ(st.done.at("soe:a:b:F=0").payload, "late");
    EXPECT_EQ(st.failed.count("soe:a:b:F=0"), 0u);
    EXPECT_EQ(st.attempts.at("soe:a:b:F=0"), 3u);
}

TEST(Journal, SilentBitFlipRaisesEvenInResumeMode)
{
    TempJournal j("bitflip");
    writeSample(j.path, "k");

    // Flip one byte inside a committed record's payload. The line is
    // still perfectly well-formed JSON — only the per-record CRC can
    // tell, and silent corruption must be a CheckpointError, not a
    // silently different resume.
    std::string data;
    {
        std::ifstream is(j.path, std::ios::binary);
        std::string line;
        while (std::getline(is, line))
            data += line + "\n";
    }
    const auto pos = data.find("66.6");
    ASSERT_NE(pos, std::string::npos);
    data[pos] = '7';
    {
        std::ofstream os(j.path, std::ios::binary | std::ios::trunc);
        os << data;
    }

    EXPECT_THROW(loadJournal(j.path, "k", false), CheckpointError);
    EXPECT_THROW(loadJournal(j.path, "k", true), CheckpointError);
}

TEST(Journal, CorruptHeaderChecksumRaises)
{
    TempJournal j("hdrflip");
    writeSample(j.path, "key-abc");

    std::string data;
    {
        std::ifstream is(j.path, std::ios::binary);
        std::string line;
        while (std::getline(is, line))
            data += line + "\n";
    }
    const auto pos = data.find("key-abc");
    ASSERT_NE(pos, std::string::npos);
    data[pos] = 'X';
    {
        std::ofstream os(j.path, std::ios::binary | std::ios::trunc);
        os << data;
    }
    // The key no longer matches its checksum; without the CRC this
    // would surface as a confusing key mismatch against 'Xey-abc'.
    EXPECT_THROW(loadJournal(j.path, "key-abc", true),
                 CheckpointError);
}

TEST(Journal, OpenAppendTruncatesATornTail)
{
    TempJournal j("appendtorn");
    writeSample(j.path, "k");
    // A previous writer died mid-append. Appending behind the torn
    // fragment would merge two records into one poisoned line; the
    // writer must truncate the fragment first.
    appendRaw(j.path, "{\"job\":\"soe:a:b:F=0\",\"state\":\"do");

    JournalWriter w;
    w.openAppend(j.path);
    w.append(rec("soe:a:b:F=0", "done", 1, "recovered"));
    w.close();

    // Strict mode proves the file is whole again: no torn line left.
    auto st = loadJournal(j.path, "k", false);
    EXPECT_EQ(st.done.at("soe:a:b:F=0").payload, "recovered");
}

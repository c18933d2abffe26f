/**
 * @file
 * Lightweight statistics package modelled on gem5's Stats.
 *
 * Stats register themselves with a Group at construction; a Group can
 * dump all of its stats as "name value # description" lines. Every
 * architectural component in soefair owns a Group so that a full run
 * can be inspected from the harness without any component-specific
 * plumbing.
 */

#ifndef SOEFAIR_STATS_STATS_HH
#define SOEFAIR_STATS_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace soefair
{
namespace statistics
{

namespace statfmt
{
class Writer;
} // namespace statfmt

class Group;

/** Base class for all statistics. */
class Stat
{
  public:
    Stat(Group *parent, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return statName; }
    const std::string &description() const { return statDesc; }

    /** Write "name value # desc" lines to os. */
    virtual void dump(statfmt::Writer &os,
                      const std::string &prefix) const = 0;

    /** Reset to the just-constructed state. */
    virtual void reset() = 0;

  private:
    std::string statName;
    std::string statDesc;
};

/** Monotonic event counter. */
class Counter : public Stat
{
  public:
    Counter(Group *parent, std::string name, std::string desc)
        : Stat(parent, std::move(name), std::move(desc)) {}

    Counter &operator++() { ++count; return *this; }
    Counter &operator+=(std::uint64_t n) { count += n; return *this; }

    std::uint64_t value() const { return count; }

    void dump(statfmt::Writer &os,
              const std::string &prefix) const override;
    void reset() override { count = 0; }

  private:
    std::uint64_t count = 0;
};

/** Running mean/min/max over samples. */
class Average : public Stat
{
  public:
    Average(Group *parent, std::string name, std::string desc)
        : Stat(parent, std::move(name), std::move(desc)) {}

    void sample(double v);

    std::uint64_t count() const { return n; }
    double mean() const { return n ? sum / double(n) : 0.0; }
    double minimum() const { return n ? mn : 0.0; }
    double maximum() const { return n ? mx : 0.0; }

    void dump(statfmt::Writer &os,
              const std::string &prefix) const override;
    void reset() override;

  private:
    std::uint64_t n = 0;
    double sum = 0.0;
    double mn = 0.0;
    double mx = 0.0;
};

/**
 * Power-of-two bucketed histogram for latency/size distributions.
 * Bucket i holds samples in [2^i, 2^(i+1)), bucket 0 holds {0, 1}.
 */
class Histogram : public Stat
{
  public:
    Histogram(Group *parent, std::string name, std::string desc,
              unsigned buckets = 24);

    void sample(std::uint64_t v);

    std::uint64_t count() const { return total; }
    std::uint64_t bucket(unsigned i) const { return counts.at(i); }
    unsigned buckets() const { return unsigned(counts.size()); }
    double mean() const { return total ? sum / double(total) : 0.0; }

    void dump(statfmt::Writer &os,
              const std::string &prefix) const override;
    void reset() override;

  private:
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    double sum = 0.0;
};

/**
 * A named collection of stats, possibly with child groups, forming
 * the stat tree that dump() walks.
 */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return groupName; }

    /** Dotted path from the root group. */
    std::string path() const;

    /** Dump this group's stats and, recursively, its children. */
    void dump(std::ostream &os) const;

    /** Reset this group's stats and children. */
    void resetStats();

    // Registration (called from Stat / child Group constructors).
    // Both panic on a name this group already holds, stat or child.
    void addStat(Stat *s);
    void addChild(Group *g);
    void removeChild(Group *g);

  private:
    void dumpTo(statfmt::Writer &os) const;
    void checkNameIsFree(const std::string &name) const;

    std::string groupName;
    Group *parent;
    std::vector<Stat *> stats;
    std::vector<Group *> children;
};

} // namespace statistics
} // namespace soefair

#endif // SOEFAIR_STATS_STATS_HH
